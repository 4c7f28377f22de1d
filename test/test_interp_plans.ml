(** Tests for the compiled execution tier and the interpreter hot-path
    fixes.

    The compiled tier (the bytecode VM of {!Dcir_bytecode} for SDFGs,
    {!Dcir_mlir.Interp} [~mode:Compiled] for MLIR) must be {e observably
    indistinguishable} from the tree walkers: same outputs, same traps,
    and bit-identical machine metrics — the cost model is the paper's
    measurement apparatus, so a tier that changes cycle counts silently
    corrupts every figure.
    These tests pin that contract on hand-built SDFGs and MLIR modules,
    on the full fixed-seed fuzz corpus, and on a Polybench subset through
    both compiled tiers, alongside the
    hot-path bug sweep: symbol reads of scalar containers must charge a
    load, float->int casts truncate toward zero and trap on NaN/inf in
    both interpreters, and SDFG construction must stay linear. *)

open Dcir_sdfg
open Dcir_symbolic
open Dcir_machine
module Pipelines = Dcir_core.Pipelines
module Metrics = Dcir_machine.Metrics

let mk_tasklet ?(syms = []) name ins outs code =
  {
    Sdfg.tname = name;
    t_inputs = ins;
    t_outputs = outs;
    t_syms = syms;
    code = Sdfg.Native code;
    t_overhead = 0.0;
  }

let memlet ?wcr ?other data subset = { Sdfg.data; subset; wcr; other }

let check_metrics_equal label (a : Metrics.t) (b : Metrics.t) =
  if not (Metrics.equal a b) then
    Alcotest.failf "%s: tree and bytecode metrics differ\ntree:\n%a\nbytecode:\n%a"
      label Metrics.pp a Metrics.pp b

(* The two SDFG tiers on a hand-built SDFG: the tree walker, and the
   bytecode VM over the lowered program. *)
type tier = Tree | Bytecode

let run_tier (tier : tier) ~(machine : Machine.t) (sdfg : Sdfg.t)
    ~(buffers : (string * Machine.buffer * int array) list) : Interp.result =
  match tier with
  | Tree -> Interp.run ~machine sdfg ~buffers ~symbols:[] ()
  | Bytecode ->
      Dcir_bytecode.Vm.run ~machine (Dcir_bytecode.Lower.lower sdfg) ~buffers
        ~symbols:[] ()

(* ------------------------------------------------------------------ *)
(* Symbol reads of scalar containers charge a load *)

(* One interstate condition reading scalar container [n]; the condition
   evaluation is the only memory access in the whole program, so the load
   counter isolates the sym_env path (a [peek] would leave it at 0). *)
let symenv_sdfg () : Sdfg.t =
  let sdfg = Sdfg.create "symenv" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "n");
  sdfg.param_order <- [ "n" ];
  ignore (Sdfg.add_state sdfg "init");
  ignore (Sdfg.add_state sdfg "exit");
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.gt (Expr.sym "n") Expr.zero)
    ~src:"init" ~dst:"exit" ();
  sdfg.start_state <- "init";
  sdfg

let run_symenv (tier : tier) : Metrics.t =
  let machine = Machine.create () in
  let n =
    Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  Machine.poke n 0 (Value.VInt 5);
  ignore (run_tier tier ~machine (symenv_sdfg ()) ~buffers:[ ("n", n, [||]) ]);
  Machine.metrics machine

let test_symenv_scalar_load () =
  let mt = run_symenv Tree in
  Alcotest.(check int) "scalar-container symbol read goes through the cache" 1
    mt.loads;
  Alcotest.(check bool) "load charged cycles" true (mt.cycles > 0.0);
  check_metrics_equal "symenv" mt (run_symenv Bytecode)

(* ------------------------------------------------------------------ *)
(* SDFG construction stays linear in the number of states *)

let test_construction_scale () =
  let n = 10_000 in
  let label i = "s" ^ string_of_int i in
  let t0 = Sys.time () in
  let sdfg = Sdfg.create "big" in
  for i = 0 to n - 1 do
    ignore (Sdfg.add_state sdfg (label i))
  done;
  for i = 0 to n - 2 do
    Sdfg.add_istate_edge sdfg ~src:(label i) ~dst:(label (i + 1)) ()
  done;
  sdfg.start_state <- label 0;
  let dt = Sys.time () -. t0 in
  (* Quadratic append made this minutes; staged construction is
     milliseconds. The bound is loose only to absorb CI noise. *)
  if dt >= 1.0 then
    Alcotest.failf "10k-state construction took %.2fs (expected well under 1s)"
      dt;
  Alcotest.(check int) "all states present" n (List.length (Sdfg.states sdfg));
  Alcotest.(check bool) "find_state hits the last state" true
    (Sdfg.find_state sdfg (label (n - 1)) <> None);
  (* And the whole chain executes identically in both tiers. *)
  let run tier =
    let machine = Machine.create () in
    ignore (run_tier tier ~machine sdfg ~buffers:[]);
    Machine.metrics machine
  in
  check_metrics_equal "10k-state chain" (run Tree) (run Bytecode)

(* ------------------------------------------------------------------ *)
(* float->int casts: truncation toward zero, trap on NaN/inf *)

let cast_src = "int kernel_cast(double x) {\n  return (int)x;\n}\n"
let cast_kinds = [ Pipelines.Mlir; Pipelines.Dcir ]
let modes : Pipelines.interp_mode list = [ `Tree; `Compiled ]

let run_cast kind mode (x : float) : Pipelines.run_result =
  let compiled =
    Pipelines.compile kind ~src:cast_src ~entry:"kernel_cast"
  in
  Pipelines.run ~interp_mode:mode compiled ~entry:"kernel_cast"
    [ Pipelines.AFloat x ]

let test_toint_truncation () =
  List.iter
    (fun (x, expect) ->
      List.iter
        (fun kind ->
          List.iter
            (fun mode ->
              let r = run_cast kind mode x in
              Alcotest.(check bool)
                (Printf.sprintf "(int)%g = %d [%s]" x expect
                   (Pipelines.kind_name kind))
                true
                (r.return_value = Some (Value.VInt expect)))
            modes)
        cast_kinds)
    [ (2.9, 2); (-2.9, -2); (-0.5, 0); (7.0, 7) ]

let trap_message (f : unit -> Pipelines.run_result) : string =
  match f () with
  | _ -> Alcotest.fail "expected a trap, got a result"
  | exception Dcir_sdfg.Interp.Trap msg -> msg
  | exception Dcir_mlir.Interp.Trap msg -> msg

let test_toint_traps () =
  List.iter
    (fun (x, expect_sub) ->
      let msgs =
        List.concat_map
          (fun kind ->
            List.map (fun mode -> trap_message (fun () -> run_cast kind mode x)) modes)
          cast_kinds
      in
      List.iter
        (fun msg ->
          Alcotest.(check bool)
            (Printf.sprintf "trap mentions %S (got %S)" expect_sub msg)
            true
            (Tutil.contains msg expect_sub))
        msgs;
      (* Same wording everywhere: both interpreters, both modes. *)
      List.iter
        (fun msg -> Alcotest.(check string) "trap message uniform" (List.hd msgs) msg)
        msgs)
    [ (Float.nan, "nan"); (Float.infinity, "out of range");
      (Float.neg_infinity, "out of range") ]

(* ------------------------------------------------------------------ *)
(* BMod / BMin / BMax on floats: parity across interpreters and modes *)

(* MLIR reference: a two-argument float function around one arith op. *)
let mlir_fbin (build : Dcir_mlir.Ir.value -> Dcir_mlir.Ir.value -> Dcir_mlir.Ir.op)
    (mode : Dcir_mlir.Interp.mode) (a : float) (b : float) : Value.t =
  let open Dcir_mlir in
  let f =
    Func_d.make_func ~name:"f"
      ~params:[ ("a", Types.F64); ("b", Types.F64) ]
      ~ret:[ Types.F64 ]
      (fun params ->
        let va = List.nth params 0 and vb = List.nth params 1 in
        let o = build va vb in
        [ o; Func_d.return_ [ Ir.result o ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  let results, _ =
    Interp.run ~mode m ~entry:"f"
      [ Interp.Scalar (Value.VFloat a); Interp.Scalar (Value.VFloat b) ]
  in
  List.hd results

let sdfg_fbin (op : Texpr.binop) (a : float) (b : float) : Value.t =
  let m = Machine.create () in
  Interp.apply_binop m op (Value.VFloat a) (Value.VFloat b)

let fbin_operands =
  [ (7.5, 2.0); (-7.5, 2.0); (7.5, -2.0); (3.0, Float.nan); (Float.nan, 3.0);
    (0.0, -0.0) ]

let test_float_minmax_cross_interp () =
  List.iter
    (fun (texpr_op, arith_op, name) ->
      List.iter
        (fun (a, b) ->
          let s = sdfg_fbin texpr_op a b in
          List.iter
            (fun mode ->
              let v = mlir_fbin arith_op mode a b in
              Alcotest.(check bool)
                (Printf.sprintf "%s(%g, %g) agrees across interpreters" name a b)
                true (Value.equal s v))
            [ Dcir_mlir.Interp.Tree; Dcir_mlir.Interp.Compiled ])
        fbin_operands)
    [ (Texpr.BMin, Dcir_mlir.Arith.minf, "min");
      (Texpr.BMax, Dcir_mlir.Arith.maxf, "max") ]

let test_float_mod_semantics () =
  (* No arith.remf in the dialect subset; BMod floats pin Float.rem
     (truncated division, sign of the dividend) directly. *)
  List.iter
    (fun ((a, b), expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "fmod(%g, %g)" a b)
        true
        (Value.equal (sdfg_fbin Texpr.BMod a b) (Value.VFloat expect)))
    [ ((7.5, 2.0), 1.5); ((-7.5, 2.0), -1.5); ((7.5, -2.0), 1.5) ];
  Alcotest.(check bool) "fmod propagates nan" true
    (Value.equal (sdfg_fbin Texpr.BMod 3.0 Float.nan) (Value.VFloat Float.nan))

(* Tasklet-level: the same ops through whole-SDFG execution, both tiers. *)
let fbin_sdfg () : Sdfg.t =
  let sdfg = Sdfg.create "fbin" in
  List.iter
    (fun name ->
      ignore
        (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DFloat ~shape:[]
           name))
    [ "a"; "b"; "m"; "lo"; "hi" ];
  sdfg.param_order <- [ "a"; "b"; "m"; "lo"; "hi" ];
  let st = Sdfg.add_state sdfg "s" in
  let g = st.s_graph in
  let a = Sdfg.add_node g (Sdfg.Access "a") in
  let b = Sdfg.add_node g (Sdfg.Access "b") in
  let t =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet "t" [ "_a"; "_b" ] [ "_m"; "_lo"; "_hi" ]
            [
              ("_m", Texpr.TBin (Texpr.BMod, TIn "_a", TIn "_b"));
              ("_lo", Texpr.TBin (Texpr.BMin, TIn "_a", TIn "_b"));
              ("_hi", Texpr.TBin (Texpr.BMax, TIn "_a", TIn "_b"));
            ]))
  in
  ignore (Sdfg.add_edge g ~dst_conn:"_a" ~memlet:(memlet "a" []) a t);
  ignore (Sdfg.add_edge g ~dst_conn:"_b" ~memlet:(memlet "b" []) b t);
  List.iter
    (fun (conn, name) ->
      let out = Sdfg.add_node g (Sdfg.Access name) in
      ignore (Sdfg.add_edge g ~src_conn:conn ~memlet:(memlet name []) t out))
    [ ("_m", "m"); ("_lo", "lo"); ("_hi", "hi") ];
  sdfg

let test_float_binops_tasklet_parity () =
  let sdfg = fbin_sdfg () in
  List.iter
    (fun (a, b) ->
      let run tier =
        let machine = Machine.create () in
        let scalar v =
          let buf =
            Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
              ~zero_init:(Value.VFloat 0.0)
          in
          Machine.poke buf 0 (Value.VFloat v);
          buf
        in
        let bufs =
          [ ("a", scalar a, [||]); ("b", scalar b, [||]); ("m", scalar 0.0, [||]);
            ("lo", scalar 0.0, [||]); ("hi", scalar 0.0, [||]) ]
        in
        ignore (run_tier tier ~machine sdfg ~buffers:bufs);
        let out name =
          let _, buf, _ = List.find (fun (n, _, _) -> n = name) bufs in
          Machine.peek buf 0
        in
        ((out "m", out "lo", out "hi"), Machine.metrics machine)
      in
      let (vt, mt) = run Tree and (vc, mc) = run Bytecode in
      let m1, lo1, hi1 = vt and m2, lo2, hi2 = vc in
      Alcotest.(check bool)
        (Printf.sprintf "tasklet outputs identical for (%g, %g)" a b)
        true
        (Value.equal m1 m2 && Value.equal lo1 lo2 && Value.equal hi1 hi2);
      check_metrics_equal "fbin tasklet" mt mc)
    fbin_operands

(* ------------------------------------------------------------------ *)
(* Two-way differential (tree / compiled): fuzz corpus, Polybench subset,
   and trap-timing shapes *)

let run_outcome compiled ~entry args (mode : Pipelines.interp_mode) :
    (Pipelines.run_result, string) result =
  match Pipelines.run ~interp_mode:mode compiled ~entry args with
  | r -> Ok r
  | exception Dcir_sdfg.Interp.Trap m -> Error m
  | exception Dcir_mlir.Interp.Trap m -> Error m

let check_tier_differential ~label kind ~src ~entry args =
  let compiled = Pipelines.compile kind ~src ~entry in
  let rt = run_outcome compiled ~entry args `Tree in
  let rc = run_outcome compiled ~entry args `Compiled in
  let agree =
    match (rt, rc) with
    | Ok x, Ok y ->
        Pipelines.bitwise_divergence ~what:"tree and compiled tiers" x y
        = None
    | Error x, Error y -> String.equal x y
    | _ -> false
  in
  if not agree then
    Alcotest.failf
      "%s: compiled tier diverged from tree walker (outputs, trap, or metrics)"
      label

let test_fuzz_tier_differential () =
  (* Same corpus as the CI fuzz campaign: seed 42, 100 programs. Every
     case must execute identically — outputs AND machine metrics — under
     tree walking and the compiled tier. The SDFG-native pipeline (the
     bytecode VM) and the gcc pipeline (the MLIR closure compiler) run
     for every case; the opaque-tasklet pipeline (dace) on every tenth. *)
  let seed = 42 and count = 100 in
  for i = 0 to count - 1 do
    let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive seed i) in
    let args = case.args () in
    check_tier_differential
      ~label:(Printf.sprintf "fuzz case %d (seed %d) dcir" i case.seed)
      Pipelines.Dcir ~src:case.src ~entry:case.entry args;
    check_tier_differential
      ~label:(Printf.sprintf "fuzz case %d (seed %d) gcc" i case.seed)
      Pipelines.Gcc ~src:case.src ~entry:case.entry args;
    if i mod 10 = 0 then
      check_tier_differential
        ~label:(Printf.sprintf "fuzz case %d (seed %d) dace" i case.seed)
        Pipelines.Dace ~src:case.src ~entry:case.entry args
  done

let test_polybench_tier_differential () =
  let open Dcir_workloads in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun kind ->
          check_tier_differential
            ~label:(w.name ^ " " ^ Pipelines.kind_name kind)
            kind ~src:w.src ~entry:w.entry (w.args ()))
        [
          Pipelines.Dcir; Pipelines.Dace; Pipelines.Gcc; Pipelines.Clang;
          Pipelines.Mlir;
        ])
    [ Polybench.gesummv; Polybench.trisolv; Polybench.jacobi_1d ]

(* Trap-timing parity on the shapes from test_trapsafe.ml: both tiers
   must trap at the same point (or not at all) with the same message, and
   agree bit-for-bit when they finish. *)
let test_bytecode_trap_timing () =
  let zero_trip =
    {|
int f(int n, int d) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + 100 / d; }
  return s;
}
|}
  in
  List.iter
    (fun (what, args) ->
      check_tier_differential
        ~label:("trap-timing " ^ what)
        Pipelines.Dcir ~src:zero_trip ~entry:"f" args)
    [
      ("zero-trip", [ Pipelines.AInt 0; Pipelines.AInt 0 ]);
      ("nonzero-trip", [ Pipelines.AInt 2; Pipelines.AInt 0 ]);
      ("benign", [ Pipelines.AInt 5; Pipelines.AInt 3 ]);
    ];
  let rem =
    {|
int g(int a, int d) {
  int t = a % d;
  int u = a / d;
  return t + u;
}
|}
  in
  List.iter
    (fun (what, args) ->
      check_tier_differential
        ~label:("trap-timing " ^ what)
        Pipelines.Dcir ~src:rem ~entry:"g" args)
    [
      ("rem-zero", [ Pipelines.AInt 7; Pipelines.AInt 0 ]);
      ("rem-ok", [ Pipelines.AInt 7; Pipelines.AInt 3 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Lazy failure timing: a malformed dataflow graph raises only when
   execution reaches it — the tree walker sorts a graph when it first
   executes it, and the lowering defers the same exception to the same
   point as a [Reraise]. *)

type cycle_at = Start_state | Later_state | Map_body

let cyclic_sdfg (at : cycle_at) : Sdfg.t =
  let sdfg = Sdfg.create "lazy" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "out");
  List.iter
    (fun n ->
      ignore (Sdfg.add_container sdfg ~dtype:Sdfg.DInt ~shape:[] n))
    [ "a"; "b" ];
  sdfg.param_order <- [ "out" ];
  let cycle (g : Sdfg.graph) =
    let a = Sdfg.add_node g (Sdfg.Access "a") in
    let b = Sdfg.add_node g (Sdfg.Access "b") in
    ignore (Sdfg.add_edge g ~memlet:(memlet "a" []) a b);
    ignore (Sdfg.add_edge g ~memlet:(memlet "b" []) b a)
  in
  (* A well-formed state storing 7 to [out]; with [Map_body] it then runs
     a one-iteration map whose body is cyclic. *)
  let store = Sdfg.add_state sdfg "store" in
  let g = store.s_graph in
  let t =
    Sdfg.add_node g
      (Sdfg.TaskletN (mk_tasklet "seven" [] [ "_o" ] [ ("_o", Texpr.TInt 7) ]))
  in
  let out = Sdfg.add_node g (Sdfg.Access "out") in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "out" []) t out);
  if at = Map_body then begin
    let body = Sdfg.new_graph () in
    cycle body;
    let map =
      Sdfg.add_node g
        (Sdfg.MapN
           {
             m_params = [ "i" ];
             m_ranges = [ Range.index Expr.zero ];
             m_body = body;
             m_par = None;
           })
    in
    (* orders the map after the store *)
    ignore (Sdfg.add_edge g ~memlet:(memlet "out" []) out map)
  end
  else begin
    cycle (Sdfg.add_state sdfg "cycle").s_graph;
    let first, second =
      if at = Start_state then ("cycle", "store") else ("store", "cycle")
    in
    Sdfg.add_istate_edge sdfg ~src:first ~dst:second ();
    sdfg.start_state <- first
  end;
  sdfg

let test_lazy_failure_timing () =
  List.iter
    (fun (at, what) ->
      let sdfg = cyclic_sdfg at in
      let outcome tier =
        let machine = Machine.create () in
        let out =
          Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
            ~zero_init:(Value.VInt 0)
        in
        match run_tier tier ~machine sdfg ~buffers:[ ("out", out, [||]) ] with
        | _ -> Alcotest.failf "%s: expected the cyclic graph to raise" what
        | exception e ->
            (Printexc.to_string e, Machine.metrics machine, Machine.peek out 0)
      in
      let et, mt, vt = outcome Tree and eb, mb, vb = outcome Bytecode in
      Alcotest.(check string) (what ^ ": same exception") et eb;
      check_metrics_equal what mt mb;
      let stored = Value.VInt (if at = Start_state then 0 else 7) in
      Alcotest.(check bool)
        (what ^ ": the store before the cycle ran in both tiers")
        true
        (Value.equal vt vb && Value.equal vt stored))
    [
      (Start_state, "cyclic start state");
      (Later_state, "cyclic later state");
      (Map_body, "cyclic map body");
    ]

(* ------------------------------------------------------------------ *)
(* Slot-resolved frames: the compiled tiers resolve names to frame slots
   when they compile, so the edge cases of the names themselves must keep
   the tree walkers' behaviour. *)

(* Both MLIR modes on a fresh machine each: the results or the trap
   message, and the machine metrics. *)
let mlir_both (m : Dcir_mlir.Ir.modul) ~(entry : string)
    (args : Dcir_mlir.Interp.rtval list) =
  let run mode =
    let machine = Machine.create () in
    let out =
      match Dcir_mlir.Interp.run ~machine ~mode m ~entry args with
      | results, _ -> Ok results
      | exception Dcir_mlir.Interp.Trap msg -> Error msg
    in
    (out, Machine.metrics machine)
  in
  (run Dcir_mlir.Interp.Tree, run Dcir_mlir.Interp.Compiled)

let check_mlir_parity label m ~entry args =
  let (ot, mt), (oc, mc) = mlir_both m ~entry args in
  (match (ot, oc) with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        (label ^ ": same results") true
        (List.length a = List.length b && List.for_all2 Value.equal a b)
  | Error a, Error b -> Alcotest.(check string) (label ^ ": same trap") a b
  | _ -> Alcotest.failf "%s: one mode trapped, the other did not" label);
  check_metrics_equal label mt mc;
  ot

let test_mlir_use_before_def () =
  let open Dcir_mlir in
  (* [later] is used one op before it is defined: the read finds no
     binding (a never-set slot) after the multiply has been charged. *)
  let later = Arith.const_int Types.I64 2 in
  let f =
    Func_d.make_func ~name:"f" ~params:[ ("x", Types.I64) ] ~ret:[ Types.I64 ]
      (fun ps ->
        let one = Arith.const_int Types.I64 1 in
        let a = Arith.addi (List.hd ps) (Ir.result one) in
        let use = Arith.muli (Ir.result a) (Ir.result later) in
        [ one; a; use; later; Func_d.return_ [ Ir.result use ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  match
    check_mlir_parity "use before def" m ~entry:"f"
      [ Interp.Scalar (Value.VInt 3) ]
  with
  | Error msg ->
      Alcotest.(check bool) "traps on the unbound value" true
        (Tutil.contains msg "unbound SSA value")
  | Ok _ -> Alcotest.fail "use before def: expected a trap"

let test_mlir_self_recursion () =
  let open Dcir_mlir in
  (* fact(n) = n <= 1 ? 1 : n * fact(n - 1). Both modes keep one binding
     per SSA value for the whole run, so each level's call rebinds the
     caller's [n], and the multiply after the call reads the innermost
     level's n = 1: fact 6 evaluates to 1 in both, with the same charges. *)
  let fact =
    Func_d.make_func ~name:"fact" ~params:[ ("n", Types.I64) ]
      ~ret:[ Types.I64 ]
      (fun ps ->
        let n = List.hd ps in
        let one = Arith.const_int Types.I64 1 in
        let le = Arith.cmpi "sle" n (Ir.result one) in
        let dec = Arith.subi n (Ir.result one) in
        let call = Func_d.call "fact" [ Ir.result dec ] [ Types.I64 ] in
        let prod = Arith.muli n (Ir.result call) in
        let sel =
          Scf_d.if_ (Ir.result le) ~result_tys:[ Types.I64 ]
            ~then_ops:[ Scf_d.yield [ Ir.result one ] ]
            ~else_ops:[ dec; call; prod; Scf_d.yield [ Ir.result prod ] ]
        in
        [ one; le; sel; Func_d.return_ [ Ir.result sel ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ fact ];
  match
    check_mlir_parity "self-recursion" m ~entry:"fact"
      [ Interp.Scalar (Value.VInt 6) ]
  with
  | Ok [ v ] ->
      Alcotest.(check bool) "one binding per value" true
        (Value.equal v (Value.VInt 1))
  | _ -> Alcotest.fail "self-recursion: expected one result"

(* Both SDFG tiers on a fresh machine each: the exception text (if any),
   the metrics, and the int outputs read back with [peek]. *)
let sdfg_both (sdfg : Sdfg.t) ~(outputs : (string * int) list) =
  let run tier =
    let machine = Machine.create () in
    let bufs =
      List.map
        (fun (name, n) ->
          ( name,
            Machine.alloc machine ~storage:Machine.Heap ~elems:n ~elem_bytes:8
              ~zero_init:(Value.VInt 0),
            if n = 1 then [||] else [| n |] ))
        outputs
    in
    let exn =
      match run_tier tier ~machine sdfg ~buffers:bufs with
      | _ -> None
      | exception e -> Some (Printexc.to_string e)
    in
    let values =
      List.concat_map
        (fun (_, b, _) -> List.init b.Machine.size (Machine.peek b))
        bufs
    in
    (exn, Machine.metrics machine, values)
  in
  let et, mt, vt = run Tree and eb, mb, vb = run Bytecode in
  Alcotest.(check (option string)) "same exception" et eb;
  check_metrics_equal (Sdfg.(sdfg.name)) mt mb;
  Alcotest.(check bool) "same outputs" true (List.for_all2 Value.equal vt vb);
  (et, vt)

let test_value_edge_never_ran () =
  (* A direct value edge out of an access node: no tasklet ever sets its
     source "nid:conn", so both tiers raise "not yet executed" after the
     first tasklet's store. *)
  let sdfg = Sdfg.create "lastedge" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "out");
  sdfg.param_order <- [ "out" ];
  let st = Sdfg.add_state sdfg "s" in
  let g = st.s_graph in
  let seven =
    Sdfg.add_node g
      (Sdfg.TaskletN (mk_tasklet "seven" [] [ "_o" ] [ ("_o", Texpr.TInt 7) ]))
  in
  let out = Sdfg.add_node g (Sdfg.Access "out") in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "out" []) seven out);
  let reader =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet "reader" [ "_in" ] [ "_r" ] [ ("_r", Texpr.TIn "_in") ]))
  in
  ignore (Sdfg.add_edge g ~src_conn:"_x" ~dst_conn:"_in" out reader);
  let out2 = Sdfg.add_node g (Sdfg.Access "out") in
  ignore (Sdfg.add_edge g ~src_conn:"_r" ~memlet:(memlet "out" []) reader out2);
  match sdfg_both sdfg ~outputs:[ ("out", 1) ] with
  | Some e, [ v ] ->
      Alcotest.(check bool) "not yet executed" true
        (Tutil.contains e "not yet executed");
      Alcotest.(check bool) "the first store ran" true
        (Value.equal v (Value.VInt 7))
  | _ -> Alcotest.fail "value edge: expected a trap"

(* A serial map over [i] in [0, 2] writing i to out[i], then a state
   storing the symbol [i] to [res]. With [bound_before], an interstate
   assignment binds i = 5 first, and the map restores it; without, the map
   removes its binding and the read after it traps. *)
let shadow_sdfg ~(bound_before : bool) : Sdfg.t =
  let sdfg = Sdfg.create "shadow" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt
       ~shape:[ Expr.int 3 ] "out");
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "res");
  sdfg.param_order <- [ "out"; "res" ];
  ignore (Sdfg.add_state sdfg "init");
  let body = Sdfg.new_graph () in
  let t =
    Sdfg.add_node body
      (Sdfg.TaskletN (mk_tasklet "iota" [] [ "_o" ] [ ("_o", Texpr.TSym "i") ]))
  in
  let o = Sdfg.add_node body (Sdfg.Access "out") in
  ignore
    (Sdfg.add_edge body ~src_conn:"_o"
       ~memlet:(memlet "out" [ Range.index (Expr.sym "i") ])
       t o);
  let loop = Sdfg.add_state sdfg "loop" in
  ignore
    (Sdfg.add_node loop.s_graph
       (Sdfg.MapN
          {
            m_params = [ "i" ];
            m_ranges = [ Range.dim Expr.zero (Expr.int 2) ];
            m_body = body;
            m_par = None;
          }));
  let after = Sdfg.add_state sdfg "after" in
  let g = after.s_graph in
  let rd =
    Sdfg.add_node g
      (Sdfg.TaskletN (mk_tasklet "read" [] [ "_o" ] [ ("_o", Texpr.TSym "i") ]))
  in
  let r = Sdfg.add_node g (Sdfg.Access "res") in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "res" []) rd r);
  Sdfg.add_istate_edge sdfg ~src:"init" ~dst:"loop"
    ~assign:(if bound_before then [ ("i", Expr.int 5) ] else [])
    ();
  Sdfg.add_istate_edge sdfg ~src:"loop" ~dst:"after" ();
  sdfg.start_state <- "init";
  sdfg

let test_map_symbol_shadowing () =
  let outputs = [ ("out", 3); ("res", 1) ] in
  (match sdfg_both (shadow_sdfg ~bound_before:true) ~outputs with
  | None, vs ->
      Alcotest.(check bool) "map ran, then i = 5 again" true
        (List.for_all2 Value.equal vs
           [ Value.VInt 0; Value.VInt 1; Value.VInt 2; Value.VInt 5 ])
  | Some e, _ -> Alcotest.failf "restored symbol: unexpected %s" e);
  match sdfg_both (shadow_sdfg ~bound_before:false) ~outputs with
  | Some e, vs ->
      Alcotest.(check bool) "unbound after the map" true
        (Tutil.contains e "unbound symbol 'i'");
      Alcotest.(check bool) "the map ran first" true
        (List.for_all2 Value.equal vs
           [ Value.VInt 0; Value.VInt 1; Value.VInt 2; Value.VInt 0 ])
  | None, _ -> Alcotest.fail "removed symbol: expected a trap"

let suite =
  ( "interp-plans",
    [
      Alcotest.test_case "sym_env scalar read charges a load" `Quick
        test_symenv_scalar_load;
      Alcotest.test_case "10k-state construction is linear" `Quick
        test_construction_scale;
      Alcotest.test_case "float->int truncates toward zero" `Quick
        test_toint_truncation;
      Alcotest.test_case "float->int traps on nan/inf, uniformly" `Quick
        test_toint_traps;
      Alcotest.test_case "min/max float cross-interpreter parity" `Quick
        test_float_minmax_cross_interp;
      Alcotest.test_case "fmod float semantics" `Quick test_float_mod_semantics;
      Alcotest.test_case "BMod/BMin/BMax tasklet tree-vs-plan parity" `Quick
        test_float_binops_tasklet_parity;
      Alcotest.test_case "bytecode trap-timing parity" `Quick
        test_bytecode_trap_timing;
      Alcotest.test_case "lazy failure timing of malformed graphs" `Quick
        test_lazy_failure_timing;
      Alcotest.test_case "MLIR use before def: same trap, same metrics" `Quick
        test_mlir_use_before_def;
      Alcotest.test_case "MLIR self-recursive call parity" `Quick
        test_mlir_self_recursion;
      Alcotest.test_case "value edge whose source never ran" `Quick
        test_value_edge_never_ran;
      Alcotest.test_case "serial map restores or removes its symbol" `Quick
        test_map_symbol_shadowing;
      Alcotest.test_case "fuzz corpus plan-vs-tree differential" `Slow
        test_fuzz_tier_differential;
      Alcotest.test_case "polybench plan-vs-tree metric equality" `Slow
        test_polybench_tier_differential;
    ] )
