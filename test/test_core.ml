(** Tests for the DCIR bridge itself: the MLIR→sdfg-dialect converter, the
    dialect→SDFG translator (including tasklet raising), the DaCe C frontend
    baseline, and the assembled pipelines. *)

open Dcir_core
open Dcir_mlir
module Diag = Dcir_support.Diagnostics

let saxpy_src =
  {|
void saxpy(double x[32], double y[32], double a) {
  for (int i = 0; i < 32; i++)
    y[i] = a * x[i] + y[i];
}
|}

let convert src =
  let m = Dcir_cfront.Polygeist.compile src in
  ignore (Pass.run_to_fixpoint (Pipelines.control_passes Dcir) m);
  Converter.convert_module m

let test_converter_emits_dialect () =
  let converted = convert saxpy_src in
  let txt = Printer.module_to_string converted in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " emitted") true (Tutil.contains txt frag))
    [ "sdfg.state"; "sdfg.edge"; "sdfg.tasklet"; "sdfg.alloc"; "sdfg.load";
      "sdfg.store"; "sdfg.converted" ];
  Verifier.verify_exn converted

let test_converter_one_op_per_state () =
  (* §5.1: every computation in its own state; states only contain
     sdfg.* operations. *)
  let converted = convert saxpy_src in
  Ir.walk_module converted (fun o ->
      if String.equal o.Ir.name "sdfg.state" then
        List.iter
          (fun (inner : Ir.op) ->
            Alcotest.(check bool)
              ("state op is sdfg.*: " ^ inner.name)
              true
              (Sdfg_d.is_sdfg_op inner.name))
          (List.hd o.regions).rops)

let test_converter_rejects_calls () =
  let m =
    Dcir_cfront.Polygeist.compile
      "double g(double x) { return x; }\ndouble f(double x) { return g(x); }"
  in
  (* Without inlining, func.call reaches the converter and is rejected. *)
  Alcotest.(check string) "calls rejected" "E-CONVERT"
    (match Converter.convert_module m with
    | _ -> "accepted"
    | exception Diag.Error { code; phase = Diag.Convert; _ } -> code)

let test_translator_raises_tasklets () =
  let converted = convert saxpy_src in
  let sdfg = Translator.translate_module converted ~entry:"saxpy" in
  (* All converter-generated tasklets raise to native code (no opaque MLIR
     tasklets with their LTO overhead). *)
  let opaque = ref 0 and native = ref 0 in
  List.iter
    (fun (st : Dcir_sdfg.Sdfg.state) ->
      List.iter
        (fun (n : Dcir_sdfg.Sdfg.node) ->
          match n.kind with
          | Dcir_sdfg.Sdfg.TaskletN { code = Native _; _ } -> incr native
          | Dcir_sdfg.Sdfg.TaskletN { code = Opaque _; _ } -> incr opaque
          | _ -> ())
        (Dcir_sdfg.Sdfg.nodes st.s_graph))
    (Dcir_sdfg.Sdfg.states sdfg);
  Alcotest.(check int) "no opaque tasklets" 0 !opaque;
  Alcotest.(check bool) "has native tasklets" true (!native > 0)

let test_translator_metadata () =
  let converted = convert saxpy_src in
  let sdfg = Translator.translate_module converted ~entry:"saxpy" in
  Alcotest.(check int) "three parameters" 3 (List.length sdfg.param_order);
  Alcotest.(check bool) "x is an argument container" true
    (List.mem "_x" (Dcir_sdfg.Sdfg.arg_order sdfg));
  Alcotest.(check bool) "validates" true
    (Dcir_sdfg.Validate.errors sdfg = [])

let test_dace_frontend_opaque () =
  let sdfg = Dace_frontend.compile saxpy_src ~entry:"saxpy" in
  (* The DaCe C frontend creates indivisible (opaque) statement tasklets. *)
  let opaque = ref 0 in
  List.iter
    (fun (st : Dcir_sdfg.Sdfg.state) ->
      List.iter
        (fun (n : Dcir_sdfg.Sdfg.node) ->
          match n.kind with
          | Dcir_sdfg.Sdfg.TaskletN { code = Opaque _; _ } -> incr opaque
          | _ -> ())
        (Dcir_sdfg.Sdfg.nodes st.s_graph))
    (Dcir_sdfg.Sdfg.states sdfg);
  Alcotest.(check bool) "opaque statement tasklets" true (!opaque > 0)

let test_dace_frontend_descending () =
  (* Descending loops are preserved as descending state-machine loops. *)
  let src =
    {|
void rev(double a[8]) {
  for (int i = 7; i >= 0; i--)
    a[i] = 1.0 * i;
}
|}
  in
  let sdfg = Dace_frontend.compile src ~entry:"rev" in
  let has_negative_step =
    List.exists
      (fun (e : Dcir_sdfg.Sdfg.istate_edge) ->
        List.exists
          (fun (s, ex) ->
            let step =
              Dcir_symbolic.Expr.sub ex (Dcir_symbolic.Expr.sym s)
            in
            Dcir_symbolic.Expr.is_constant step = Some (-1))
          e.ie_assign)
      (Dcir_sdfg.Sdfg.istate_edges sdfg)
  in
  Alcotest.(check bool) "negative-step loop kept" true has_negative_step

let test_pipelines_agree_on_saxpy () =
  let args () =
    [
      Pipelines.AFloatArr (Array.init 32 float_of_int, [| 32 |]);
      Pipelines.AFloatArr (Array.make 32 1.0, [| 32 |]);
      Pipelines.AFloat 2.0;
    ]
  in
  let ms = Pipelines.compare_pipelines ~src:saxpy_src ~entry:"saxpy" (args ()) in
  Alcotest.(check int) "five pipelines" 5 (List.length ms);
  List.iter
    (fun (m : Pipelines.measurement) ->
      Alcotest.(check bool) (m.pipeline ^ " correct") true m.correct)
    ms

let test_dcir_not_slower_than_mlir () =
  (* Paper observation 1: DCIR is never (meaningfully) slower than MLIR. *)
  let checks =
    [ Dcir_workloads.Polybench.gesummv; Dcir_workloads.Polybench.atax;
      Dcir_workloads.Case_studies.mish_eager ]
  in
  List.iter
    (fun (w : Dcir_workloads.Workload.t) ->
      let ms =
        Pipelines.compare_pipelines ~src:w.src ~entry:w.entry (w.args ())
      in
      let c p =
        (List.find (fun (m : Pipelines.measurement) -> m.pipeline = p) ms).cycles
      in
      Alcotest.(check bool)
        (w.name ^ ": dcir <= 1.02 * mlir")
        true
        (c "dcir" <= 1.02 *. c "mlir"))
    checks

let test_icc_vector_math_faster () =
  let w = Dcir_workloads.Case_studies.mish_eager in
  let compiled = Pipelines.compile Dcir ~src:w.src ~entry:w.entry in
  let base = (Pipelines.run compiled ~entry:w.entry (w.args ())).metrics.cycles in
  let icc =
    (Pipelines.run
       ~cfg:(Dcir_machine.Cost.with_vector_math Dcir_machine.Cost.default)
       compiled ~entry:w.entry (w.args ()))
      .metrics
      .cycles
  in
  Alcotest.(check bool) "vector math wins on Mish" true (icc < base)

(* Both IRs charge a libm call the same op classes: each function of the
   math table, called alone, costs mlir and dcir the same FP ops and
   library calls. *)
let test_math_parity () =
  List.iter
    (fun (f : Math_d.fn) ->
      let call = if f.arity = 2 then f.c_name ^ "(x, x)" else f.c_name ^ "(x)" in
      let src = Printf.sprintf "double f(double x) { return %s; }" call in
      let metrics kind =
        (Pipelines.run
           (Pipelines.compile kind ~src ~entry:"f")
           ~entry:"f" [ Pipelines.AFloat 1.5 ])
          .metrics
      in
      let m = metrics Mlir and d = metrics Dcir in
      Alcotest.(check (pair int int))
        (f.c_name ^ ": fp ops, math calls")
        (m.fp_ops, m.math_calls) (d.fp_ops, d.math_calls))
    Math_d.table

(* The no-change contract the fixpoint engine's skip rule relies on: an
   application that reports no change leaves the IR exactly as it found
   it, and a converged pass list stays converged. Each control pass list
   and each stage of the data-centric pipeline is driven to a fixpoint by
   a loop of its own (not the engine), over the Polybench kernels and a
   few generated programs, comparing the printed IR around every
   application. Only a broken contract is checked (and logged): there
   are thousands of applications. *)
let test_no_change_contract () =
  let drive ~what ~print ~name ~apply passes ir =
    let check_clean p =
      let before = print ir in
      let changed = apply p ir in
      (if not changed then
         let after = print ir in
         if after <> before then
           Alcotest.(check string)
             (Printf.sprintf "%s: %s reported no change" what (name p))
             before after);
      changed
    in
    let rec loop round =
      let any =
        List.fold_left (fun any p -> check_clean p || any) false passes
      in
      if any then begin
        if round = 30 then Alcotest.failf "%s: no fixpoint in 30 rounds" what;
        loop (round + 1)
      end
    in
    loop 1;
    List.iter
      (fun p ->
        if check_clean p then
          Alcotest.failf "%s: %s changed the IR again at the fixpoint" what
            (name p))
      passes
  in
  let control ~what passes src =
    drive ~what ~print:Printer.module_to_string
      ~name:(fun (p : Pass.t) -> p.pname)
      ~apply:(fun (p : Pass.t) m -> p.run m)
      passes
      (Dcir_cfront.Polygeist.compile src)
  in
  let module Driver = Dcir_dace_passes.Driver in
  let data ~what kind ~src ~entry =
    match Pipelines.compile ~optimize_sdfg:false kind ~src ~entry with
    | Pipelines.CSdfg sdfg ->
        List.iter
          (fun (stage, passes) ->
            drive ~what:(what ^ " " ^ stage) ~print:Dcir_sdfg.Printer.to_string
              ~name:fst ~apply:(fun (_, run) s -> run s) passes sdfg)
          [
            ("simplify", Driver.simplify_passes);
            ("O1", Driver.simplify_passes @ Driver.o1_passes);
            ( "O2",
              Driver.simplify_passes @ Driver.o1_passes @ Driver.o2_passes );
          ]
    | Pipelines.CMlir _ -> Alcotest.fail "expected an SDFG product"
  in
  let sources =
    List.map
      (fun (w : Dcir_workloads.Workload.t) -> (w.name, w.src, w.entry))
      Dcir_workloads.Polybench.all
    @ List.init 4 (fun i ->
          let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive 0x901d i) in
          (Printf.sprintf "gen%03d" i, case.src, case.entry))
  in
  List.iter
    (fun (name, src, entry) ->
      List.iter
        (fun kind ->
          let what = name ^ " " ^ Pipelines.kind_name kind in
          match Pipelines.control_passes kind with
          | [] -> ()
          | passes -> control ~what passes src)
        Pipelines.all_kinds;
      data ~what:(name ^ " dcir") Dcir ~src ~entry;
      data ~what:(name ^ " dace") Dace ~src ~entry)
    sources

(* Printed products are functions of the product alone. The Polybench
   kernels and Fig 2 through every pipeline at O2, and a few generated
   programs through the resilient auto-parallelizing ladder, print the
   same after the id counters jump ahead by an odd offset that widens
   every id by a digit or more: a printer that showed an id, or a pass
   that ordered its rewrites by an id's hash, would differ. *)
let test_history_independent () =
  let print = function
    | Pipelines.CMlir m -> Printer.module_to_string m
    | Pipelines.CSdfg s -> Dcir_sdfg.Printer.to_string s
  in
  let products () =
    List.concat_map
      (fun (w : Dcir_workloads.Workload.t) ->
        List.map
          (fun kind ->
            ( w.name ^ " " ^ Pipelines.kind_name kind,
              print (Pipelines.compile kind ~src:w.src ~entry:w.entry) ))
          Pipelines.all_kinds)
      (Dcir_workloads.Case_studies.fig2_example :: Dcir_workloads.Polybench.all)
    @ List.init 10 (fun i ->
          let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive 0x901d i) in
          let c, _ =
            Pipelines.compile_resilient ~autopar:true Dcir ~src:case.src
              ~entry:case.entry
          in
          (Printf.sprintf "gen%03d" i, print c))
  in
  let first = products () in
  let counters =
    [ Ir.value_counter; Ir.op_counter; Dcir_sdfg.Sdfg.node_counter ]
  in
  let top = List.fold_left (fun m c -> max m (Atomic.get c)) 0 counters in
  let rec pow10 p = if p > top then p else pow10 (10 * p) in
  let offset = (10 * pow10 1) + 1 in
  List.iter (fun c -> ignore (Atomic.fetch_and_add c offset)) counters;
  List.iter2
    (fun (name, a) (_, b) -> Alcotest.(check string) name a b)
    first (products ())

let test_wrong_argument_count () =
  (* One argument for two parameters is the same E-ARGS diagnostic on
     every pipeline, whichever IR its product runs. *)
  let src = "double f(double a[4], int n) {\n  return a[0] + n;\n}\n" in
  List.iter
    (fun kind ->
      let c = Pipelines.compile kind ~src ~entry:"f" in
      Alcotest.(check string)
        (Pipelines.kind_name kind ^ ": wrong argument count")
        "E-ARGS"
        (match
           Pipelines.run c ~entry:"f"
             [ Pipelines.AFloatArr ([| 1.; 2.; 3.; 4. |], [| 4 |]) ]
         with
        | _ -> "ran"
        | exception Diag.Error { code; phase = Diag.Execute; _ } -> code))
    Pipelines.all_kinds

let suite =
  ( "core",
    [
      Alcotest.test_case "converter emits the sdfg dialect" `Quick
        test_converter_emits_dialect;
      Alcotest.test_case "converter: one op per state" `Quick
        test_converter_one_op_per_state;
      Alcotest.test_case "converter rejects calls" `Quick
        test_converter_rejects_calls;
      Alcotest.test_case "translator raises tasklets" `Quick
        test_translator_raises_tasklets;
      Alcotest.test_case "translator metadata" `Quick test_translator_metadata;
      Alcotest.test_case "dace frontend: opaque tasklets" `Quick
        test_dace_frontend_opaque;
      Alcotest.test_case "dace frontend: descending loops" `Quick
        test_dace_frontend_descending;
      Alcotest.test_case "pipelines agree (saxpy)" `Quick
        test_pipelines_agree_on_saxpy;
      Alcotest.test_case "dcir never slower than mlir" `Slow
        test_dcir_not_slower_than_mlir;
      Alcotest.test_case "ICC vector math" `Quick test_icc_vector_math_faster;
      Alcotest.test_case "math functions cost the same in both IRs" `Quick
        test_math_parity;
      Alcotest.test_case "passes that report no change leave the IR alone"
        `Quick test_no_change_contract;
      Alcotest.test_case "printed products do not depend on id counters"
        `Quick test_history_independent;
      Alcotest.test_case "wrong argument count is E-ARGS on every pipeline"
        `Quick test_wrong_argument_count;
    ] )
