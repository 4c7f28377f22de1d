(** Tests for the control-centric passes. Each pass is checked structurally
    (the expected rewrite happened) and semantically (execution result is
    unchanged); a differential property test compiles random C kernels under
    every pass pipeline and compares outputs. *)

open Dcir_mlir
open Dcir_cfront
module P = Dcir_mlir_passes

let count_ops (m : Ir.modul) (name : string) : int =
  let n = ref 0 in
  Ir.walk_module m (fun o -> if String.equal o.Ir.name name then incr n);
  !n

let compile_with (passes : Pass.t list) (src : string) : Ir.modul =
  let m = Polygeist.compile src in
  ignore (Pass.run_to_fixpoint passes m);
  Verifier.verify_exn m;
  m

let run_int (m : Ir.modul) ~entry args : int =
  let results, _ = Interp.run m ~entry args in
  Dcir_machine.Value.as_int (List.hd results)

let run_float (m : Ir.modul) ~entry args : float =
  let results, _ = Interp.run m ~entry args in
  Dcir_machine.Value.as_float (List.hd results)

(* ------------------------------------------------------------------ *)

let test_mem2reg () =
  let src =
    "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i > 2) s \
     += i; } return s; }"
  in
  let before = compile_with [] src in
  let after = compile_with [ P.Mem2reg.pass; P.Dce.pass ] src in
  Alcotest.(check bool) "cells before" true (count_ops before "memref.alloca" > 0);
  Alcotest.(check int) "cells gone" 0 (count_ops after "memref.alloca");
  let arg = [ Interp.Scalar (Dcir_machine.Value.VInt 10) ] in
  Alcotest.(check int) "semantics" (run_int before ~entry:"f" arg)
    (run_int after ~entry:"f" arg)

let test_fixpoint_stats () =
  let src =
    "int f(int n) { int s = 0; for (int i = 0; i < n; i++) { if (i > 2) s \
     += i; } return s; }"
  in
  let passes = [ P.Mem2reg.pass; P.Canonicalize.pass; P.Dce.pass ] in
  let m = Polygeist.compile src in
  let changed, stats = Pass.run_to_fixpoint_stats passes m in
  Alcotest.(check bool) "pipeline changed the module" true changed;
  (* mem2reg fires in round 1, so the fixpoint needs a second round to
     confirm quiescence. *)
  Alcotest.(check bool) "at least two rounds" true (stats.rounds >= 2);
  let apps name = List.assoc name stats.applications in
  Alcotest.(check bool) "mem2reg applied" true (apps "mem2reg" > 0);
  Alcotest.(check bool) "dce applied" true (apps "dce" > 0);
  (* A second run over the already-optimized module must be a no-op that
     settles in exactly one round with zero applications. *)
  let changed2, stats2 = Pass.run_to_fixpoint_stats passes m in
  Alcotest.(check bool) "idempotent" false changed2;
  Alcotest.(check int) "one quiescent round" 1 stats2.rounds;
  List.iter
    (fun (name, n) ->
      Alcotest.(check int) (name ^ " not applied on rerun") 0 n)
    stats2.applications

let test_canonicalize_folds () =
  let src = "int f() { return (2 + 3) * 4 - (10 / 5); }" in
  let m = compile_with [ P.Mem2reg.pass; P.Canonicalize.pass; P.Dce.pass ] src in
  Alcotest.(check int) "all folded" 0 (count_ops m "arith.addi");
  Alcotest.(check int) "result" 18 (run_int m ~entry:"f" [])

let test_cse () =
  let src = "double f(double x) { return x * x + x * x; }" in
  let m = compile_with [ P.Mem2reg.pass; P.Cse.pass; P.Dce.pass ] src in
  Alcotest.(check int) "one multiply" 1 (count_ops m "arith.mulf");
  Alcotest.(check (float 1e-9)) "value" 18.0
    (run_float m ~entry:"f" [ Interp.Scalar (Dcir_machine.Value.VFloat 3.0) ])

let test_dce_dead_malloc () =
  let src =
    "int f() { int *p = (int*)malloc(100 * sizeof(int)); free(p); return 5; }"
  in
  let m =
    compile_with [ P.Mem2reg.pass; P.Canonicalize.pass; P.Dce.pass ] src
  in
  Alcotest.(check int) "allocation elided" 0 (count_ops m "memref.alloc");
  Alcotest.(check int) "dealloc elided" 0 (count_ops m "memref.dealloc")

let test_licm_hoists () =
  let src =
    {|
double f(double a[8], double b[8]) {
  double s = 0.0;
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      s += a[i] * b[j];
  return s;
}
|}
  in
  let m =
    compile_with [ P.Mem2reg.pass; P.Canonicalize.pass; P.Licm.pass; P.Dce.pass ] src
  in
  (* a[i] must be loaded in the i-loop, not the j-loop: exactly one load
     remains in the innermost loop body. *)
  let innermost_loads = ref (-1) in
  Ir.walk_module m (fun o ->
      if String.equal o.Ir.name "scf.for" then begin
        let body = Scf_d.loop_body o in
        let has_nested_loop =
          List.exists (fun (x : Ir.op) -> String.equal x.name "scf.for") body.rops
        in
        if not has_nested_loop then
          innermost_loads :=
            List.length
              (List.filter
                 (fun (x : Ir.op) -> String.equal x.name "memref.load")
                 body.rops)
      end);
  Alcotest.(check int) "one load in inner loop" 1 !innermost_loads

let test_inline () =
  let src =
    "double sq(double x) { return x * x; }\n\
     double f(double y) { return sq(y) + sq(y + 1.0); }"
  in
  let m =
    compile_with [ P.Mem2reg.pass; P.Inline.pass; P.Cse.pass; P.Dce.pass ] src
  in
  Alcotest.(check int) "no calls left" 0 (count_ops m "func.call");
  Alcotest.(check (float 1e-9)) "value" 25.0
    (run_float m ~entry:"f" [ Interp.Scalar (Dcir_machine.Value.VFloat 3.0) ])

let test_loop_fusion () =
  let src =
    {|
void f(double a[64], double b[64]) {
  for (int i = 0; i < 64; i++)
    a[i] = 5.0;
  for (int j = 0; j < 64; j++)
    b[j] = a[j] * 2.0;
}
|}
  in
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Loop_fusion.pass; P.Dce.pass ]
      src
  in
  Alcotest.(check int) "loops fused" 1 (count_ops m "scf.for")

let test_loop_fusion_rejects_carried () =
  (* b[i] reads a[i+1]: not element-wise; must not fuse. *)
  let src =
    {|
void f(double a[64], double b[64]) {
  for (int i = 0; i < 63; i++)
    a[i] = 5.0;
  for (int j = 0; j < 63; j++)
    b[j] = a[j + 1];
}
|}
  in
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Loop_fusion.pass ] src
  in
  Alcotest.(check int) "not fused" 2 (count_ops m "scf.for")

let test_reg_promote () =
  let src =
    {|
void f(double c[8][8], double a[8][8], double b[8][8]) {
  for (int i = 0; i < 8; i++)
    for (int j = 0; j < 8; j++)
      for (int k = 0; k < 8; k++)
        c[i][j] += a[i][k] * b[k][j];
}
|}
  in
  let base = [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Dce.pass ] in
  let before = compile_with base src in
  let after = compile_with (base @ [ P.Reg_promote.pass; P.Dce.pass ]) src in
  let stores m = count_ops m "memref.store" in
  (* The c[i][j] store moves out of the k-loop: static store count stays, but
     the innermost loop must contain none. *)
  ignore (stores before);
  let inner_has_store = ref false in
  Ir.walk_module after (fun o ->
      if String.equal o.Ir.name "scf.for" then begin
        let body = Scf_d.loop_body o in
        let nested =
          List.exists (fun (x : Ir.op) -> String.equal x.name "scf.for") body.rops
        in
        if not nested then
          inner_has_store :=
            List.exists
              (fun (x : Ir.op) -> String.equal x.name "memref.store")
              body.rops
      end);
  Alcotest.(check bool) "no store in innermost loop" false !inner_has_store

(* Promoted references come out in the order the loop body first touches
   them, whatever ids earlier compiles drew: gesummv's gcc product, which
   promotes tmp[i] and y[i] in its inner loop, prints the same after each
   of several unrelated compiles. *)
let test_reg_promote_order () =
  let w = Dcir_workloads.Polybench.gesummv in
  let print () =
    match Dcir_core.Pipelines.compile Gcc ~src:w.src ~entry:w.entry with
    | CMlir m -> Printer.module_to_string m
    | CSdfg _ -> Alcotest.fail "expected an MLIR product"
  in
  let first = print () in
  for i = 1 to 8 do
    ignore (Polygeist.compile "double tri(double x) { return x * 3.0; }");
    Alcotest.(check string)
      (Printf.sprintf "same product after %d unrelated compile(s)" i)
      first (print ())
  done

let test_store_forward () =
  let src =
    {|
double f(double a[8]) {
  a[3] = 7.0;
  double x = a[3];
  return x * 2.0;
}
|}
  in
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Store_forward.pass;
        P.Dce.pass ]
      src
  in
  Alcotest.(check int) "load forwarded away" 0 (count_ops m "memref.load")

(* ------------------------------------------------------------------ *)
(* Differential property test: random kernels, all pipelines agree. *)

let gen_kernel : string QCheck2.Gen.t =
  let open QCheck2.Gen in
  (* Random element-wise/stencil-ish kernels over two arrays and a scalar. *)
  let exprs =
    [
      "a[i]"; "b[i]"; "a[i] + b[i]"; "a[i] * 2.0 + 1.0"; "b[i] - a[i] * s";
      "a[i] * a[i]"; "s * 3.0";
    ]
  in
  let stmts =
    [
      (fun e -> Printf.sprintf "a[i] = %s;" e);
      (fun e -> Printf.sprintf "b[i] = %s;" e);
      (fun e -> Printf.sprintf "acc += %s;" e);
      (fun e -> Printf.sprintf "if (a[i] > 0.5) b[i] = %s;" e);
    ]
  in
  let* n_loops = int_range 1 3 in
  let* bodies =
    list_repeat n_loops
      (let* stmt_count = int_range 1 3 in
       list_repeat stmt_count
         (let* s = oneofl stmts in
          let* e = oneofl exprs in
          return (s e)))
  in
  let loops =
    List.map
      (fun body ->
        Printf.sprintf "  for (int i = 0; i < 16; i++) {\n    %s\n  }"
          (String.concat "\n    " body))
      bodies
  in
  return
    (Printf.sprintf
       "double kernel(double a[16], double b[16], double s) {\n\
       \  double acc = 0.0;\n%s\n  double r = acc;\n  for (int i = 0; i < 16; \
        i++)\n    r += a[i] + b[i];\n  return r;\n}"
       (String.concat "\n" loops))

let prop_pipelines_agree =
  QCheck2.Test.make ~count:60 ~print:Fun.id
    ~name:"all five pipelines agree on random kernels" gen_kernel
    (fun src ->
      let args () =
        [
          Dcir_core.Pipelines.AFloatArr
            (Array.init 16 (fun i -> Dcir_workloads.Workload.frand i), [| 16 |]);
          Dcir_core.Pipelines.AFloatArr
            (Array.init 16 (fun i -> Dcir_workloads.Workload.frand (i + 99)), [| 16 |]);
          Dcir_core.Pipelines.AFloat 0.75;
        ]
      in
      let ms =
        Dcir_core.Pipelines.compare_pipelines ~src ~entry:"kernel" (args ())
      in
      List.for_all (fun (m : Dcir_core.Pipelines.measurement) -> m.correct) ms)

let suite =
  ( "mlir-passes",
    [
      Alcotest.test_case "mem2reg promotes cells" `Quick test_mem2reg;
      Alcotest.test_case "fixpoint stats track rounds" `Quick test_fixpoint_stats;
      Alcotest.test_case "canonicalize folds constants" `Quick test_canonicalize_folds;
      Alcotest.test_case "cse dedups" `Quick test_cse;
      Alcotest.test_case "dce elides dead malloc" `Quick test_dce_dead_malloc;
      Alcotest.test_case "licm hoists invariant loads" `Quick test_licm_hoists;
      Alcotest.test_case "inline removes calls" `Quick test_inline;
      Alcotest.test_case "loop fusion merges" `Quick test_loop_fusion;
      Alcotest.test_case "loop fusion rejects offsets" `Quick test_loop_fusion_rejects_carried;
      Alcotest.test_case "register promotion" `Quick test_reg_promote;
      Alcotest.test_case "reg-promote order is history-free" `Quick
        test_reg_promote_order;
      Alcotest.test_case "store forwarding" `Quick test_store_forward;
      QCheck_alcotest.to_alcotest prop_pipelines_agree;
    ] )
