(** Pass pipeline drivers mirroring the paper's stages (§6).

    - {!inference}: scalar-to-symbol promotion, symbol propagation, update
      (WCR) detection — recovers analyzable symbolic dataflow (§6.1);
    - {!simplify}: the idempotent simplification fixpoint — state fusion,
      scalar forwarding, plus re-running inference as containers disappear
      (the DaCe [sdfg.simplify()] equivalent, "-O1 in compilers");
    - {!reduce_data_movement} (-O1): extended DCE (dead states, dead
      dataflow), array elimination, memlet consolidation (§6.2);
    - {!memory_scheduling} (-O2): allocation hoisting + stack allocation,
      memory-reducing loop fusion, local-storage promotion, invariant loop
      collapsing / write narrowing (§6.3).

    {!optimize} runs the full data-centric pipeline and returns populated
    {!stats}: fixpoint round counts, per-pass application counts, and the
    states/edges/containers deltas the passes achieved. Every stage, round,
    and pass application also records a {!Dcir_obs.Obs} span (wall time +
    changed flag) when telemetry collection is enabled.

    The fixpoint is an instance of {!Dcir_resilience.Fixpoint}, which
    describes checked execution ([~checked:true]). Here the snapshot is
    {!Dcir_sdfg.Sdfg.copy}, and a pass is rolled back only for the
    {!Dcir_sdfg.Validate.errors} it introduced: errors the SDFG had before
    the pass, wherever they are located, are not its to answer for. *)

module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Diag = Dcir_support.Diagnostics
module Budget = Dcir_resilience.Budget
module Fixpoint = Dcir_resilience.Fixpoint

let log_src =
  Logs.Src.create "dcir.dace.driver" ~doc:"data-centric pass driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  rounds : int;
      (** fixpoint rounds executed across all stages, including each
          stage's final no-progress round *)
  applications : (string * int) list;
      (** pass name -> number of applications that changed the SDFG and
          were not rolled back, in pipeline order (every pass listed, 0
          when it never fired) *)
  skipped : int;
      (** applications not run because their pass had already run clean
          on the same SDFG ({!Dcir_resilience.Fixpoint}) *)
  states_before : int;
  states_after : int;
  edges_before : int;
  edges_after : int;
  containers_before : int;
  containers_after : int;
  eliminated_containers : int;
      (** containers removed outright or demoted to register scalars *)
  incidents : Diag.incident list;
      (** checked-mode rollbacks, chronological ([[]] when unchecked or
          when every pass behaved) *)
}

let sdfg_counts (sdfg : Dcir_sdfg.Sdfg.t) : int * int * int =
  ( List.length (Dcir_sdfg.Sdfg.states sdfg),
    List.length (Dcir_sdfg.Sdfg.istate_edges sdfg),
    Hashtbl.length sdfg.containers )

(* Per-pass application counts, clean-pass generations, checked-mode
   incidents and breaker state, shared by the stages of one optimize run
   (one accum = one breaker lifetime, and one SDFG). *)
type accum = Fixpoint.run

let new_accum () : accum = Fixpoint.create ()

(* Chaos corruption for the data-centric IR: an access node naming a
   container that does not exist — {!Dcir_sdfg.Validate} rejects it, so
   checked execution rolls it back and unchecked pipelines catch it at
   the next validation phase. *)
let corrupt_sdfg (sdfg : Dcir_sdfg.Sdfg.t) : unit =
  match Dcir_sdfg.Sdfg.states sdfg with
  | s :: _ ->
      ignore
        (Dcir_sdfg.Sdfg.add_node s.s_graph
           (Dcir_sdfg.Sdfg.Access "__chaos_bogus__"))
  | [] -> ()

(* A validation error's message without the state (and map nesting)
   it names, which ends at the first colon. A pass that moves a
   pre-existing error into another state has not introduced it. *)
let unlocated (d : Dcir_sdfg.Validate.diagnostic) : string =
  match String.index_opt d.message ':' with
  | Some i -> String.sub d.message i (String.length d.message - i)
  | None -> d.message

(* The errors a pass introduced: those of [after] whose unlocated
   message occurs there more often than in [before]. On a valid input
   that is every error of [after]. *)
let introduced (before : Dcir_sdfg.Validate.diagnostic list)
    (after : Dcir_sdfg.Validate.diagnostic list) :
    Dcir_sdfg.Validate.diagnostic list =
  let count = Hashtbl.create 8 in
  let bump k n =
    Hashtbl.replace count k
      (n + Option.value ~default:0 (Hashtbl.find_opt count k))
  in
  List.iter (fun d -> bump (unlocated d) 1) after;
  List.iter (fun d -> bump (unlocated d) (-1)) before;
  List.filter (fun d -> Hashtbl.find count (unlocated d) > 0) after

module Engine = Fixpoint.Make (struct
  type ir = Dcir_sdfg.Sdfg.t
  type pass = string * (Dcir_sdfg.Sdfg.t -> bool)
  type snapshot = Dcir_sdfg.Sdfg.t * Dcir_sdfg.Validate.diagnostic list

  let name (n, _) = n
  let apply (_, run) sdfg = run sdfg
  let domain = "data"
  let pass_cat = "dace-pass"
  let round_cat = "dace-fixpoint"
  let ops = None
  let src = log_src
  let corrupt = corrupt_sdfg

  let snapshot sdfg =
    let copy = Dcir_sdfg.Sdfg.copy sdfg in
    (copy, Dcir_sdfg.Validate.errors sdfg)

  let restore ~into (copy, _) = Dcir_sdfg.Sdfg.restore ~into copy

  let check (_, before) sdfg =
    match introduced before (Dcir_sdfg.Validate.errors sdfg) with
    | [] -> None
    | errs ->
        let reason =
          String.concat "\n"
            (List.map (Fmt.str "%a" Dcir_sdfg.Validate.pp_diagnostic) errs)
        in
        Some (reason, reason)

  let print = Dcir_sdfg.Printer.to_string
  let repro_prefix = "dcir-repro-dace"
  let repro_ext = ".sdfg"
end)

(** Iterate [passes] to a fixpoint. With [~checked:true], every pass runs
    under snapshot/validate/rollback; a failing pass trips its breaker in
    [accum.breaker] (persistently, when the same [accum] is shared across
    stages) and its incident is recorded in [accum.incidents]. [budget]
    charges one unit of optimization fuel per admitted pass application. *)
let fixpoint ?(max_rounds = 30) ?(accum : accum option)
    ?(budget : Budget.t option) ?(checked = false)
    ?(reproducer_dir = Filename.get_temp_dir_name ())
    (passes : (string * (Dcir_sdfg.Sdfg.t -> bool)) list)
    (sdfg : Dcir_sdfg.Sdfg.t) : bool =
  (* Checked mode needs somewhere to record incidents/breaker state even
     when the caller did not supply an accumulator. *)
  let acc = match accum with Some a -> a | None -> new_accum () in
  Engine.fixpoint ~max_rounds ?budget ~checked ~reproducer_dir acc passes sdfg

let inference : (string * (Dcir_sdfg.Sdfg.t -> bool)) list =
  [
    ("scalar-to-symbol", Scalar_to_symbol.run);
    ("symbol-propagation", Symbol_propagation.run);
    ("wcr-detection", Wcr_detect.run);
  ]

let simplify_passes : (string * (Dcir_sdfg.Sdfg.t -> bool)) list =
  inference
  @ [
      ("state-fusion", State_fusion.run);
      ("scalar-forwarding", Scalar_forwarding.run);
      ("element-forwarding", Element_forwarding.run);
      ("dead-state", Dead_state.run);
    ]

let o1_passes : (string * (Dcir_sdfg.Sdfg.t -> bool)) list =
  [
    ("dead-dataflow", Dead_dataflow.run);
    ("memlet-consolidation", Memlet_consolidation.run);
  ]

let o2_passes : (string * (Dcir_sdfg.Sdfg.t -> bool)) list =
  [
    ("alloc-opt", Alloc_opt.run);
    ("loop-fusion", Loop_fusion.run);
    ("shrink-to-scalar", Shrink_scalar.run);
    ("local-storage", Local_storage.run);
    ("invariant-collapse", Invariant_collapse.run);
  ]

let all_pass_names : string list =
  List.map fst (simplify_passes @ o1_passes @ o2_passes)

(** DaCe's [sdfg.simplify()]: inference + fusion to a fixpoint. *)
let simplify (sdfg : Dcir_sdfg.Sdfg.t) : bool = fixpoint simplify_passes sdfg

(* Containers removed outright plus arrays demoted to register scalars —
   both stop existing in memory.
   Both counters are domain-local, so these read and reset the calling
   domain's counts. *)
let eliminated_containers () : int =
  !(Domain.DLS.get Dead_dataflow.eliminated_counter)
  + !(Domain.DLS.get Shrink_scalar.counter)

let reset_counters () : unit =
  Domain.DLS.get Dead_dataflow.eliminated_counter := 0;
  Domain.DLS.get Shrink_scalar.counter := 0

(** Full pipeline: simplify, then -O1 data movement reduction, then -O2
    memory scheduling, re-simplifying after each stage (passes expose new
    opportunities to each other). [disable] names passes to skip — the
    ablation hook used by the benchmark harness. Returns the populated
    statistics of this run. *)
let optimize ?(o1 = true) ?(o2 = true) ?(disable = []) ?(checked = false)
    ?(budget : Budget.t option) ?reproducer_dir (sdfg : Dcir_sdfg.Sdfg.t) :
    stats =
  let keep passes =
    List.filter (fun (n, _) -> not (List.mem n disable)) passes
  in
  let states_before, edges_before, containers_before = sdfg_counts sdfg in
  let eliminated0 = eliminated_containers () in
  let accum = new_accum () in
  let stage name passes =
    ignore
      (Obs.with_span ~cat:"dace-stage" name (fun () ->
           let s0, e0, c0 = sdfg_counts sdfg in
           let changed =
             fixpoint ~accum ?budget ~checked ?reproducer_dir (keep passes)
               sdfg
           in
           let s1, e1, c1 = sdfg_counts sdfg in
           Obs.set_args
             [
               ("changed", Json.Bool changed);
               ("states", Json.Str (Printf.sprintf "%d->%d" s0 s1));
               ("edges", Json.Str (Printf.sprintf "%d->%d" e0 e1));
               ("containers", Json.Str (Printf.sprintf "%d->%d" c0 c1));
             ];
           Log.info (fun f ->
               f "stage %s: states %d->%d, edges %d->%d, containers %d->%d"
                 name s0 s1 e0 e1 c0 c1);
           changed))
  in
  stage "simplify" simplify_passes;
  if o1 then stage "reduce-data-movement" (simplify_passes @ o1_passes);
  if o2 then
    stage "memory-scheduling" (simplify_passes @ o1_passes @ o2_passes);
  let states_after, edges_after, containers_after = sdfg_counts sdfg in
  {
    rounds = accum.total_rounds;
    applications =
      List.map (fun n -> (n, Fixpoint.applications accum n)) all_pass_names;
    skipped = accum.skipped;
    states_before;
    states_after;
    edges_before;
    edges_after;
    containers_before;
    containers_after;
    eliminated_containers = eliminated_containers () - eliminated0;
    incidents = List.rev accum.incidents;
  }
