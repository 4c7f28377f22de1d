(** One compile or run, decomposed into its layers' public calls.

    [compile] makes the calls {!Dcir_core.Pipelines.compile} makes, in the
    order it makes them for each pipeline kind, with a {!Trace} span around
    each; [resilient] repeats the degradation ladder of
    {!Dcir_core.Pipelines.compile_resilient} over it. The control and
    data-centric passes are entered through the pass managers
    ([Pass.run_to_fixpoint_stats], [Driver.optimize]) that
    [control_phase] and [dace_phase] wrap, because only the pass managers
    return the pass statistics. With telemetry off the wrappers add nothing else,
    so the decomposed calls produce the same artifacts as the composed
    ones; the smoke test checks that the simulated results are
    bit-identical.

    A later change to [Pipelines.compile] must be mirrored here, or the
    traced numbers stop describing the untraced run. *)

module Pipelines = Dcir_core.Pipelines
module Budget = Dcir_resilience.Budget
module Pass = Dcir_mlir.Pass
module Sdfg = Dcir_sdfg.Sdfg
module Diag = Dcir_support.Diagnostics
module Loop_to_map = Dcir_autopar.Loop_to_map

let rec graph_nodes (g : Sdfg.graph) : int =
  List.fold_left
    (fun acc (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.MapN mn -> acc + 1 + graph_nodes mn.m_body
      | Sdfg.Access _ | Sdfg.TaskletN _ -> acc + 1)
    0 (Sdfg.nodes g)

let sdfg_nodes (sdfg : Sdfg.t) : int =
  List.fold_left
    (fun acc (s : Sdfg.state) -> acc + graph_nodes s.s_graph)
    0 (Sdfg.states sdfg)

let sum_apps (apps : (string * int) list) : int =
  List.fold_left (fun acc (_, n) -> acc + n) 0 apps

let frontend (src : string) : Dcir_mlir.Ir.modul =
  let m = Trace.span "cfront" (fun () -> Pipelines.frontend_phase src) in
  Trace.count_int "cfront.ops_out" (Pass.count_ops m);
  m

let control ~budget ~tier kind (m : Dcir_mlir.Ir.modul) : unit =
  match Pipelines.control_passes_at tier kind with
  | [] -> ()
  | passes ->
      let before = Pass.count_ops m in
      let _, (st : Pass.pipeline_stats) =
        Trace.span "mlir_passes" (fun () ->
            Pass.run_to_fixpoint_stats ~budget passes m)
      in
      Trace.count_int "mlir_passes.rounds" st.rounds;
      Trace.count_int "mlir_passes.applications" (sum_apps st.applications);
      Trace.count_int "mlir_passes.ops_removed" (before - Pass.count_ops m)

let translated (sdfg : Sdfg.t) : unit =
  Trace.count_int "core.sdfg_states" (List.length (Sdfg.states sdfg));
  Trace.count_int "core.sdfg_nodes" (sdfg_nodes sdfg)

let autopar (sdfg : Sdfg.t) : unit =
  let tally () =
    match !Pipelines.last_autopar_report with
    | Some report ->
        Trace.count_int "autopar.loops" (List.length report);
        Trace.count_int "autopar.converted"
          (List.length
             (List.filter
                (fun (e : Loop_to_map.entry) ->
                  match e.en_outcome with
                  | Loop_to_map.Converted _ -> true
                  | Loop_to_map.Rejected _ -> false)
                report))
    | None -> ()
  in
  match Trace.span "autopar" (fun () -> Pipelines.autopar_phase sdfg) with
  | () -> tally ()
  | exception e ->
      tally ();
      Trace.count "autopar.failures" 1.0;
      raise e

let dace_opt ~budget ~tier ~autopar:with_autopar ~validate (sdfg : Sdfg.t) :
    unit =
  let run_all, o1, o2 = Pipelines.dace_levels_at tier in
  if run_all then begin
    let (st : Dcir_dace_passes.Driver.stats) =
      Trace.span "dace_passes" (fun () ->
          Dcir_dace_passes.Driver.optimize ~o1 ~o2 ~budget sdfg)
    in
    Trace.count_int "dace_passes.rounds" st.rounds;
    Trace.count_int "dace_passes.applications" (sum_apps st.applications);
    Trace.count_int "dace_passes.eliminated_containers"
      st.eliminated_containers;
    Trace.count_int "dace_passes.sdfg_nodes_out" (sdfg_nodes sdfg)
  end;
  if with_autopar then autopar sdfg;
  if validate then
    Trace.span "validate" (fun () ->
        match Dcir_sdfg.Validate.errors sdfg with
        | [] -> ()
        | errs ->
            Diag.fail ~code:"E-VALIDATE" ~phase:Diag.Validate "%s"
              (String.concat "; "
                 (List.map
                    (fun (d : Dcir_sdfg.Validate.diagnostic) -> d.message)
                    errs)))

(** [Pipelines.compile ~budget ~autopar ~validate ~tier kind ~src ~entry]. *)
let compile ?(autopar = false) ?(validate = false) ?(tier = Pipelines.O2)
    ~(budget : Budget.t) (kind : Pipelines.kind) ~(src : string)
    ~(entry : string) : Pipelines.compiled =
  let dace_opt = dace_opt ~budget ~tier ~autopar ~validate in
  match kind with
  | Pipelines.Gcc | Clang | Mlir ->
      let m = frontend src in
      control ~budget ~tier kind m;
      Trace.span "verify" (fun () -> Pipelines.verify_phase m);
      Pipelines.CMlir m
  | Dace ->
      let sdfg =
        Trace.span "dace_frontend" (fun () ->
            Dcir_core.Dace_frontend.compile src ~entry)
      in
      translated sdfg;
      dace_opt sdfg;
      Pipelines.CSdfg sdfg
  | Dcir ->
      let m = frontend src in
      control ~budget ~tier kind m;
      Trace.span "verify" (fun () -> Pipelines.verify_phase m);
      let converted =
        Trace.span "core.convert" (fun () -> Dcir_core.Converter.convert_module m)
      in
      let sdfg =
        Trace.span "core.translate" (fun () ->
            Dcir_core.Translator.translate_module converted ~entry)
      in
      translated sdfg;
      dace_opt sdfg;
      Pipelines.CSdfg sdfg

(** [Pipelines.compile_resilient ~autopar kind ~src ~entry] at its
    defaults: O2 down to unoptimized, a fresh default budget per rung. *)
let resilient ~(autopar : bool) (kind : Pipelines.kind) ~(src : string)
    ~(entry : string) : Pipelines.compiled =
  let rec attempt (t : Pipelines.tier) =
    match
      compile
        ~autopar:(autopar && t <> Pipelines.Unopt)
        ~validate:true ~tier:t ~budget:(Budget.create ()) kind ~src ~entry
    with
    | compiled -> compiled
    | exception (Diag.Error { phase = Diag.Frontend; _ } as e) -> raise e
    | exception e -> (
        Trace.count "compile.degradations" 1.0;
        match Pipelines.next_tier t with
        | Some t' -> attempt t'
        | None -> raise e)
  in
  attempt Pipelines.O2

let machine_counts (r : Pipelines.run_result) (budget : Budget.t) : unit =
  let m = r.metrics in
  Trace.count_int "exec.steps" budget.steps;
  Trace.count "machine.cycles" m.cycles;
  Trace.count_int "machine.loads" m.loads;
  Trace.count_int "machine.stores" m.stores;
  Trace.count_int "machine.l1_misses" m.l1_misses

(** [Pipelines.run ~budget compiled ~entry args] at the default execution
    tier, with the SDFG lowering ([plan_for]) timed apart from execution;
    the run then finds the plan in the artifact store. *)
let run ~(budget : Budget.t) (compiled : Pipelines.compiled) ~(entry : string)
    (args : Pipelines.arg list) : Pipelines.run_result =
  let r =
    match compiled with
    | Pipelines.CMlir _ ->
        Trace.span "mlir.exec" (fun () ->
            Pipelines.run ~budget compiled ~entry args)
    | Pipelines.CSdfg sdfg ->
        ignore (Trace.span "sdfg.plan" (fun () -> Pipelines.plan_for sdfg));
        Trace.span "sdfg.exec" (fun () ->
            Pipelines.run ~budget compiled ~entry args)
  in
  machine_counts r budget;
  r

(** Lower an SDFG product to bytecode beside the measured op, and with
    [plan] also to the default tier's plan, for the lowering-cost
    comparison of the two tiers. *)
let lower_side_by_side ~(plan : bool) ~(op : int)
    (compiled : Pipelines.compiled) : unit =
  match compiled with
  | Pipelines.CSdfg sdfg ->
      if plan then
        ignore (Trace.span ~op "sdfg.plan" (fun () -> Pipelines.plan_for sdfg));
      let p =
        Trace.span ~op "bytecode.lower" (fun () ->
            Dcir_bytecode.Lower.lower sdfg)
      in
      Trace.count_int "bytecode.instrs" (Dcir_bytecode.Isa.size p)
  | Pipelines.CMlir _ -> ()
