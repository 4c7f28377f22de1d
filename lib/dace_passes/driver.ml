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

    {b Checked execution} ([~checked:true]): before each pass the SDFG is
    snapshotted ({!Dcir_sdfg.Sdfg.copy}); after it,
    {!Dcir_sdfg.Validate.errors} re-checks the graph. If the pass raised or
    introduced a validation error (one the SDFG did not have before the
    pass, wherever it is located), it is rolled back, the incident is
    recorded (a [pass-rollback] journal note, which the event stream
    carries as [PASS-ROLLBACK], a [rollback] span and a
    {!Dcir_support.Diagnostics.incident} in [stats.incidents]), a
    crash-reproducer file (pre-pass SDFG + the failing pass name) is
    written, and the pass's circuit breaker trips — open for a cooldown of
    fixpoint rounds, probationally re-admitted afterwards, re-closed after
    clean applications ({!Dcir_resilience.Breaker}). *)

module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Diag = Dcir_support.Diagnostics
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker
module Chaos = Dcir_resilience.Chaos
module Journal = Dcir_resilience.Journal
module Events = Dcir_obs.Events

let log_src =
  Logs.Src.create "dcir.dace.driver" ~doc:"data-centric pass driver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type stats = {
  rounds : int;
      (** fixpoint rounds executed across all stages, including each
          stage's final no-progress round *)
  applications : (string * int) list;
      (** pass name -> number of applications that changed the SDFG, in
          pipeline order (every pass listed, 0 when it never fired) *)
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

(* Per-pass application accumulator shared by the stages of one optimize
   run; also collects checked-mode incidents and breaker state across
   stages (session-scoped: one accum = one breaker lifetime). *)
type accum = {
  apps : (string, int) Hashtbl.t;
  mutable total_rounds : int;
  mutable incidents : Diag.incident list;  (** reverse chronological *)
  breaker : Breaker.t;
}

let new_accum () : accum =
  {
    apps = Hashtbl.create 16;
    total_rounds = 0;
    incidents = [];
    breaker = Breaker.create ();
  }

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

let run_one ?(accum : accum option)
    ((name, p) : string * (Dcir_sdfg.Sdfg.t -> bool))
    (sdfg : Dcir_sdfg.Sdfg.t) : bool =
  let inject = Chaos.tick_pass () in
  (match inject with
  | `Crash ->
      Journal.note ~kind:"chaos-injected"
        [ ("fault", Json.Str "pass-crash"); ("pass", Json.Str name) ];
      raise (Chaos.Injected (Chaos.Pass_crash, name))
  | `Ok | `Corrupt -> ());
  let c =
    if not (Obs.enabled ()) then p sdfg
    else
      Obs.with_span ~cat:"dace-pass" name (fun () ->
          let c = p sdfg in
          Obs.set_args [ ("changed", Json.Bool c) ];
          c)
  in
  (match inject with
  | `Corrupt ->
      corrupt_sdfg sdfg;
      Journal.note ~kind:"chaos-injected"
        [ ("fault", Json.Str "corrupt-rewrite"); ("pass", Json.Str name) ]
  | `Ok | `Crash -> ());
  if c then (
    Log.debug (fun f -> f "pass %s: changed" name);
    match accum with
    | Some a ->
        Hashtbl.replace a.apps name
          (1 + Option.value ~default:0 (Hashtbl.find_opt a.apps name))
    | None -> ());
  c

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

(* Run one pass under checked execution: snapshot the SDFG, run the pass,
   re-validate. On a crash, or when the pass introduced a validation
   error, roll back to the snapshot and report the incident (the caller
   disables the pass). Errors already present before the pass -- a
   translated SDFG whose sizes Fig 3 verification cannot prove -- are
   not the pass's to answer for. *)
let run_one_checked ?(accum : accum option) ~(round : int)
    ~(reproducer_dir : string)
    ((name, _) as pass : string * (Dcir_sdfg.Sdfg.t -> bool))
    (sdfg : Dcir_sdfg.Sdfg.t) : bool * Diag.incident option =
  let snapshot = Dcir_sdfg.Sdfg.copy sdfg in
  let before = Dcir_sdfg.Validate.errors sdfg in
  let outcome =
    match run_one ?accum pass sdfg with
    | changed -> (
        match introduced before (Dcir_sdfg.Validate.errors sdfg) with
        | [] -> Ok changed
        | errs ->
            Error
              (String.concat "\n"
                 (List.map
                    (fun d -> Fmt.str "%a" Dcir_sdfg.Validate.pp_diagnostic d)
                    errs)))
    | exception exn -> Error ("pass raised: " ^ Printexc.to_string exn)
  in
  match outcome with
  | Ok changed -> (changed, None)
  | Error reason ->
      Dcir_sdfg.Sdfg.restore ~into:sdfg snapshot;
      Journal.note ~kind:"pass-rollback"
        [
          ("domain", Json.Str "data");
          ("pass", Json.Str name);
          ("round", Json.Int round);
          ("reason", Json.Str reason);
        ];
      let reproducer =
        Dcir_mlir.Pass.write_reproducer ~ext:".sdfg" ~dir:reproducer_dir
          ~prefix:"dcir-repro-dace" ~pass_name:name ~reason
          (Dcir_sdfg.Printer.to_string sdfg)
      in
      Dcir_mlir.Pass.record_rollback ~pass_name:name ~reason reproducer;
      Log.err (fun f ->
          f "pass %s failed validation and was rolled back: %s" name reason);
      (false, Some { Diag.in_pass = name; in_round = round; reason; reproducer })

(** Iterate [passes] to a fixpoint. With [~checked:true], every pass runs
    under snapshot/validate/rollback; a failing pass trips its breaker in
    [accum.breaker] (persistently, when the same [accum] is shared across
    stages) and its incident is recorded in [accum.incidents]. [budget]
    charges one unit of optimization fuel per pass application. *)
let fixpoint ?(max_rounds = 30) ?(accum : accum option)
    ?(budget : Budget.t option) ?(checked = false)
    ?(reproducer_dir = Filename.get_temp_dir_name ())
    (passes : (string * (Dcir_sdfg.Sdfg.t -> bool)) list)
    (sdfg : Dcir_sdfg.Sdfg.t) : bool =
  (* Checked mode needs somewhere to record incidents/breaker state even
     when the caller did not supply an accumulator. *)
  let acc = match accum with Some a -> a | None -> new_accum () in
  let changed = ref false in
  let progress = ref true in
  let rounds = ref 0 in
  while !progress && !rounds < max_rounds do
    incr rounds;
    acc.total_rounds <- acc.total_rounds + 1;
    progress :=
      Obs.with_span ~cat:"dace-fixpoint"
        (Printf.sprintf "round %d" !rounds)
        (fun () ->
          List.fold_left
            (fun any ((name, _) as pass) ->
              if not (Breaker.admits acc.breaker name) then begin
                if Events.active () then
                  Events.emit ~code:"PASS-SKIP"
                    [
                      ("domain", Json.Str "data");
                      ("pass", Json.Str name);
                      ("round", Json.Int !rounds);
                      ("breaker", Json.Str (Breaker.state_name acc.breaker name));
                      ( "failures",
                        Json.Int (Breaker.failure_count acc.breaker name) );
                    ];
                any
              end
              else begin
                Option.iter Budget.burn_fuel budget;
                let c =
                  if not checked then run_one ~accum:acc pass sdfg
                  else begin
                    let c, incident =
                      run_one_checked ~accum:acc ~round:!rounds ~reproducer_dir
                        pass sdfg
                    in
                    (match incident with
                    | Some i ->
                        acc.incidents <- i :: acc.incidents;
                        Breaker.record_failure acc.breaker name
                    | None -> Breaker.record_success acc.breaker name);
                    c
                  end
                in
                if Events.active () then
                  Events.emit ~code:"PASS-ADMIT"
                    [
                      ("domain", Json.Str "data");
                      ("pass", Json.Str name);
                      ("round", Json.Int !rounds);
                      ("changed", Json.Bool c);
                    ];
                c || any
              end)
            false passes);
    Breaker.end_round acc.breaker;
    Log.debug (fun f ->
        f "fixpoint round %d: %s" !rounds
          (if !progress then "progress" else "stable"));
    if !progress then changed := true
  done;
  !changed

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
      List.map
        (fun n ->
          (n, Option.value ~default:0 (Hashtbl.find_opt accum.apps n)))
        all_pass_names;
    states_before;
    states_after;
    edges_before;
    edges_after;
    containers_before;
    containers_after;
    eliminated_containers = eliminated_containers () - eliminated0;
    incidents = List.rev accum.incidents;
  }
