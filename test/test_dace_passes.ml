(** Tests for the data-centric passes, driven through the real pipeline:
    compile a C kernel with the converter, run one pass (or stage), and
    check both the structural effect and semantic preservation. *)

open Dcir_core
module Driver = Dcir_dace_passes.Driver
module Sdfg = Dcir_sdfg.Sdfg

let compile_sdfg ?(control = true) (src : string) ~(entry : string) : Sdfg.t =
  let m = Dcir_cfront.Polygeist.compile src in
  if control then
    ignore
      (Dcir_mlir.Pass.run_to_fixpoint (Pipelines.control_passes Dcir) m);
  let converted = Converter.convert_module m in
  Translator.translate_module converted ~entry

let semantics_preserved ?disable (w_src : string) ~(entry : string)
    (args : unit -> Pipelines.arg list) : bool =
  let reference =
    Pipelines.run (CMlir (Dcir_cfront.Polygeist.compile w_src)) ~entry (args ())
  in
  let compiled = Pipelines.compile ?disable Dcir ~src:w_src ~entry in
  let r = Pipelines.run compiled ~entry (args ()) in
  Pipelines.divergence reference r = None

let saxpy_src =
  {|
void saxpy(double x[32], double y[32], double a) {
  for (int i = 0; i < 32; i++)
    y[i] = a * x[i] + y[i];
}
|}

let saxpy_args () =
  [
    Pipelines.AFloatArr (Array.init 32 float_of_int, [| 32 |]);
    Pipelines.AFloatArr (Array.make 32 1.0, [| 32 |]);
    Pipelines.AFloat 2.0;
  ]

let container_count (sdfg : Sdfg.t) : int = Hashtbl.length sdfg.containers

let test_scalar_to_symbol () =
  let sdfg = compile_sdfg saxpy_src ~entry:"saxpy" in
  let scalars_before =
    Hashtbl.fold
      (fun _ (c : Sdfg.container) n -> if Sdfg.is_scalar c then n + 1 else n)
      sdfg.containers 0
  in
  ignore (Dcir_dace_passes.Scalar_to_symbol.run sdfg);
  let scalars_after =
    Hashtbl.fold
      (fun _ (c : Sdfg.container) n -> if Sdfg.is_scalar c then n + 1 else n)
      sdfg.containers 0
  in
  Alcotest.(check bool) "int scalars promoted" true
    (scalars_after < scalars_before)

let test_symbol_propagation () =
  let sdfg = compile_sdfg saxpy_src ~entry:"saxpy" in
  ignore (Driver.fixpoint Driver.inference sdfg);
  (* After promotion + propagation, constants are folded into subsets and no
     single-assignment symbol remains on the edges. *)
  let single_assign_consts =
    List.concat_map
      (fun (e : Sdfg.istate_edge) ->
        List.filter
          (fun (_, ex) -> Dcir_symbolic.Expr.is_constant ex <> None)
          e.ie_assign)
      (Sdfg.istate_edges sdfg)
    |> List.filter (fun (s, _) ->
           List.length
             (List.filter
                (fun (e : Sdfg.istate_edge) -> List.mem_assoc s e.ie_assign)
                (Sdfg.istate_edges sdfg))
           = 1)
  in
  Alcotest.(check int) "no residual constant symbols" 0
    (List.length single_assign_consts)

let test_state_fusion_shrinks () =
  let sdfg = compile_sdfg saxpy_src ~entry:"saxpy" in
  let before = List.length (Sdfg.states sdfg) in
  ignore (Driver.fixpoint Driver.inference sdfg);
  ignore (Dcir_dace_passes.State_fusion.run sdfg);
  Alcotest.(check bool) "fewer states" true (List.length (Sdfg.states sdfg) < before)

let test_wcr_detection () =
  let src =
    {|
void acc(double x[16], double out[16]) {
  for (int i = 0; i < 16; i++)
    out[i] = out[i] + x[i];
}
|}
  in
  let sdfg = compile_sdfg src ~entry:"acc" in
  ignore (Driver.simplify sdfg);
  let has_wcr = ref false in
  List.iter
    (fun (st : Sdfg.state) ->
      List.iter
        (fun (e : Sdfg.edge) ->
          match e.e_memlet with
          | Some m when m.wcr = Some Sdfg.WcrSum -> has_wcr := true
          | _ -> ())
        (Sdfg.edges st.s_graph))
    (Sdfg.states sdfg);
  Alcotest.(check bool) "update detected" true !has_wcr;
  Alcotest.(check bool) "semantics" true
    (semantics_preserved src ~entry:"acc" (fun () ->
         [
           Pipelines.AFloatArr (Array.init 16 float_of_int, [| 16 |]);
           Pipelines.AFloatArr (Array.make 16 5.0, [| 16 |]);
         ]))

let test_dead_dataflow () =
  let src =
    {|
void dead(double out[8]) {
  double *junk = (double*)malloc(64 * sizeof(double));
  for (int i = 0; i < 64; i++)
    junk[i] = 1.0 * i;
  for (int i = 0; i < 8; i++)
    out[i] = 2.0 * i;
  free(junk);
}
|}
  in
  let sdfg = compile_sdfg src ~entry:"dead" in
  Driver.reset_counters ();
  let stats = Driver.optimize sdfg in
  Alcotest.(check bool) "junk eliminated" true
    (Driver.eliminated_containers () > 0);
  Alcotest.(check bool) "container gone" false
    (Hashtbl.fold
       (fun name _ acc -> acc || Tutil.contains name "junk")
       sdfg.containers false);
  (* The stats record must reflect what actually happened: three fixpoint
     stages ran (>= 1 round each), some pass applied at least once, and the
     after-counts match the live SDFG. *)
  Alcotest.(check bool) "fixpoint ran >= 3 rounds" true (stats.rounds >= 3);
  let total_apps =
    List.fold_left (fun acc (_, n) -> acc + n) 0 stats.applications
  in
  Alcotest.(check bool) "some pass applied" true (total_apps > 0);
  Alcotest.(check bool) "containers shrank" true
    (stats.containers_after < stats.containers_before);
  Alcotest.(check int) "states_after matches SDFG" stats.states_after
    (List.length (Sdfg.states sdfg));
  Alcotest.(check int) "containers_after matches SDFG" stats.containers_after
    (Hashtbl.length sdfg.containers);
  Alcotest.(check int) "eliminated count in stats"
    (Driver.eliminated_containers ())
    stats.eliminated_containers

let test_counters_domain_local () =
  (* [Driver.optimize] reads the elimination counters as a before/after
     delta, so two domains optimizing at once must each count only their
     own eliminations. *)
  let sdfgs =
    List.map
      (fun (w : Dcir_workloads.Workload.t) -> compile_sdfg w.src ~entry:w.entry)
      [ Dcir_workloads.Polybench.gemm; Dcir_workloads.Polybench.correlation ]
  in
  let eliminated sdfg =
    (Driver.optimize (Sdfg.copy sdfg)).eliminated_containers
  in
  let solo = List.map eliminated sdfgs in
  let runs = 50 in
  let domains =
    List.map
      (fun sdfg ->
        Domain.spawn (fun () -> List.init runs (fun _ -> eliminated sdfg)))
      sdfgs
  in
  List.iter2
    (fun expected d ->
      Alcotest.(check (list int))
        (Printf.sprintf "%d concurrent runs count %d each" runs expected)
        (List.init runs (fun _ -> expected))
        (Domain.join d))
    solo domains

let test_self_cycle_dead () =
  (* The Fig 2 pattern: an array only read to feed writes to itself. *)
  let src =
    {|
int selfdead(int n) {
  int *A = (int*)malloc(64 * sizeof(int));
  for (int i = 0; i < 64; i++)
    A[i] = 1;
  for (int t = 0; t < n; t++)
    for (int i = 0; i < 63; i++)
      A[i] = A[i + 1];
  free(A);
  return n;
}
|}
  in
  let sdfg = compile_sdfg src ~entry:"selfdead" in
  ignore (Driver.optimize sdfg);
  let a_exists =
    Hashtbl.fold (fun name _ acc -> acc || Tutil.contains name "A") sdfg.containers false
  in
  Alcotest.(check bool) "self-sustaining array removed" false a_exists

let test_alloc_hoisting () =
  let src =
    {|
double hoist(double x[16]) {
  double s = 0.0;
  for (int t = 0; t < 16; t++) {
    double *tmp = (double*)malloc(16 * sizeof(double));
    for (int i = 0; i < 16; i++)
      tmp[i] = x[i] * 2.0;
    for (int i = 0; i < 16; i++)
      s += tmp[i];
    free(tmp);
  }
  return s;
}
|}
  in
  let args () = [ Pipelines.AFloatArr (Array.init 16 float_of_int, [| 16 |]) ] in
  let r_dcir = Tutil.run_pipeline Dcir ~src ~entry:"hoist" (args ()) in
  let r_mlir = Tutil.run_pipeline Mlir ~src ~entry:"hoist" (args ()) in
  Alcotest.(check bool) "allocations hoisted/eliminated" true
    (r_dcir.metrics.heap_allocs < r_mlir.metrics.heap_allocs);
  Alcotest.(check bool) "semantics" true
    (semantics_preserved src ~entry:"hoist" args)

let test_stack_allocation () =
  let sdfg =
    compile_sdfg
      {|
void f(double out[8]) {
  double *t = (double*)malloc(8 * sizeof(double));
  for (int i = 0; i < 8; i++)
    t[i] = 1.0 * i;
  for (int i = 0; i < 8; i++)
    out[i] = t[i] + t[7 - i];
  free(t);
}
|}
      ~entry:"f"
  in
  ignore (Driver.optimize sdfg);
  let heap_transients =
    Hashtbl.fold
      (fun _ (c : Sdfg.container) n ->
        if c.transient && c.storage = Sdfg.Heap then n + 1 else n)
      sdfg.containers 0
  in
  Alcotest.(check int) "small transient moved off the heap" 0 heap_transients

let test_loop_fusion_and_shrink () =
  let src =
    {|
void chain(double x[64], double out[64]) {
  double *t = (double*)malloc(64 * sizeof(double));
  for (int i = 0; i < 64; i++)
    t[i] = x[i] * 2.0;
  for (int i = 0; i < 64; i++)
    out[i] = t[i] + 1.0;
  free(t);
}
|}
  in
  let args () =
    [
      Pipelines.AFloatArr (Array.init 64 float_of_int, [| 64 |]);
      Pipelines.AFloatArr (Array.make 64 0.0, [| 64 |]);
    ]
  in
  let r_dcir = Tutil.run_pipeline Dcir ~src ~entry:"chain" (args ()) in
  let r_mlir = Tutil.run_pipeline Mlir ~src ~entry:"chain" (args ()) in
  (* The intermediate array becomes a register scalar: its 64 loads and 64
     stores disappear. *)
  Alcotest.(check bool) "less traffic after fusion+shrink" true
    (r_dcir.metrics.loads + r_dcir.metrics.stores
    < r_mlir.metrics.loads + r_mlir.metrics.stores);
  Alcotest.(check bool) "semantics" true
    (semantics_preserved src ~entry:"chain" args)

let test_local_storage () =
  let src =
    {|
void dot(double a[24][24], double b[24][24], double c[24][24]) {
  for (int i = 0; i < 24; i++)
    for (int j = 0; j < 24; j++)
      for (int k = 0; k < 24; k++)
        c[i][j] += a[i][k] * b[k][j];
}
|}
  in
  let args () =
    [
      Pipelines.AFloatArr (Array.init 576 (fun k -> Dcir_workloads.Workload.frand k), [| 24; 24 |]);
      Pipelines.AFloatArr (Array.init 576 (fun k -> Dcir_workloads.Workload.frand (k + 7)), [| 24; 24 |]);
      Pipelines.AFloatArr (Array.make 576 0.0, [| 24; 24 |]);
    ]
  in
  let with_ls = Tutil.run_pipeline Dcir ~src ~entry:"dot" (args ()) in
  let without =
    Tutil.run_pipeline ~disable:[ "local-storage" ] Dcir ~src ~entry:"dot"
      (args ())
  in
  Alcotest.(check bool) "accumulator promoted to register" true
    (with_ls.metrics.stores < without.metrics.stores);
  Alcotest.(check bool) "semantics" true
    (semantics_preserved src ~entry:"dot" args)

let test_invariant_collapse () =
  let src =
    {|
int inv(int n) {
  int *B = (int*)malloc(16 * sizeof(int));
  for (int t = 0; t < 1000; t++)
    B[3] = 7;
  int r = B[3];
  free(B);
  return r;
}
|}
  in
  let args () = [ Pipelines.AInt 5 ] in
  let r_dcir = Tutil.run_pipeline Dcir ~src ~entry:"inv" (args ()) in
  let r_mlir = Tutil.run_pipeline Mlir ~src ~entry:"inv" (args ()) in
  Alcotest.(check bool) "idempotent loop collapsed" true
    (r_dcir.metrics.cycles < r_mlir.metrics.cycles /. 10.0);
  Alcotest.(check bool) "result" true
    (r_dcir.return_value = Some (Dcir_machine.Value.VInt 7))

let test_simplify_idempotent () =
  let sdfg = compile_sdfg saxpy_src ~entry:"saxpy" in
  ignore (Driver.simplify sdfg);
  let states = List.length (Sdfg.states sdfg) in
  let containers = container_count sdfg in
  ignore (Driver.simplify sdfg);
  Alcotest.(check int) "states stable" states (List.length (Sdfg.states sdfg));
  Alcotest.(check int) "containers stable" containers (container_count sdfg)

let test_each_pass_preserves_semantics () =
  (* Disabling any single pass must never change results, only costs. *)
  List.iter
    (fun pass ->
      Alcotest.(check bool)
        (Printf.sprintf "disable %s keeps semantics" pass)
        true
        (semantics_preserved ~disable:[ pass ] saxpy_src ~entry:"saxpy"
           saxpy_args))
    Driver.all_pass_names

let suite =
  ( "dace-passes",
    [
      Alcotest.test_case "scalar-to-symbol" `Quick test_scalar_to_symbol;
      Alcotest.test_case "symbol propagation" `Quick test_symbol_propagation;
      Alcotest.test_case "state fusion" `Quick test_state_fusion_shrinks;
      Alcotest.test_case "WCR detection" `Quick test_wcr_detection;
      Alcotest.test_case "dead dataflow elimination" `Quick test_dead_dataflow;
      Alcotest.test_case "self-cycle dead arrays" `Quick test_self_cycle_dead;
      Alcotest.test_case "allocation hoisting" `Quick test_alloc_hoisting;
      Alcotest.test_case "stack allocation" `Quick test_stack_allocation;
      Alcotest.test_case "loop fusion + shrink" `Quick test_loop_fusion_and_shrink;
      Alcotest.test_case "local storage promotion" `Quick test_local_storage;
      Alcotest.test_case "invariant loop collapse" `Quick test_invariant_collapse;
      Alcotest.test_case "simplify is idempotent" `Quick test_simplify_idempotent;
      Alcotest.test_case "elimination counters are domain-local" `Quick
        test_counters_domain_local;
      Alcotest.test_case "pass ablations preserve semantics" `Quick
        test_each_pass_preserves_semantics;
    ] )
