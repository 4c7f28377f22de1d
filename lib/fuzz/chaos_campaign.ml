(** Chaos campaign: differential fuzzing under seeded fault injection.

    Each case generates a program (same generator and per-case seed
    derivation as the plain {!Harness}), computes its unoptimized
    reference output with no chaos armed, then installs a fault plan
    derived from the case seed and compiles the [dcir] pipeline through
    the graceful-degradation ladder. The oracle accepts exactly two
    outcomes:

    - {b correct}: the (possibly degraded) artifact runs and matches the
      reference within floating-point tolerance; or
    - {b diagnosed}: compile or run raised a structured diagnostic — a
      budget exhaustion, a {!Dcir_support.Diagnostics.Error}, a machine
      fault, an interpreter trap, or the injected fault itself.

    A wrong answer or an unstructured exception escaping the ladder fails
    the campaign. The campaign installs a decision-event stream
    ([dcir-events/1]): each case adds a [CHAOS-CASE] event with its fault
    plan, the events of its compile and runs (injected faults, rollbacks,
    breaker transitions, failed and landed ladder rungs), and a
    [CHAOS-OUTCOME] event with its verdict. Every decision is a pure
    function of the campaign seed, and events carry stable classification
    codes rather than raw exception text, so replaying a seed reproduces
    the stream byte-for-byte. *)

module Pipelines = Dcir_core.Pipelines
module Diag = Dcir_support.Diagnostics
module Budget = Dcir_resilience.Budget
module Chaos = Dcir_resilience.Chaos
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json

type outcome =
  | Correct  (** artifact ran at the requested tier and matched *)
  | Degraded_correct  (** artifact ran at a lower tier and matched *)
  | Diagnosed of string  (** structured diagnostic (classification code) *)
  | Wrong of string  (** ran but diverged from the reference *)
  | Escaped of string  (** unstructured exception escaped the ladder *)

let outcome_name = function
  | Correct -> "correct"
  | Degraded_correct -> "degraded-correct"
  | Diagnosed _ -> "diagnosed"
  | Wrong _ -> "wrong-answer"
  | Escaped _ -> "escaped"

(** [Wrong] and [Escaped] violate the chaos oracle; everything else is an
    acceptable response to an injected fault. *)
let acceptable = function
  | Correct | Degraded_correct | Diagnosed _ -> true
  | Wrong _ | Escaped _ -> false

type case_result = {
  cr_index : int;
  cr_seed : int;  (** program seed (complete reproducer with the config) *)
  cr_faults : Chaos.fault list;  (** fault kinds the plan armed *)
  cr_outcome : outcome;
}

type report = {
  ch_count : int;
  ch_seed : int;
  ch_cases : case_result list;  (** in generation order *)
  ch_events : Events.t;  (** the campaign's decision-event stream *)
}

let ok (r : report) : bool =
  List.for_all (fun c -> acceptable c.cr_outcome) r.ch_cases

(* Structured diagnostics: every exception the resilience machinery is
   allowed to answer with. Anything else escaping the ladder is a bug. *)
let diagnosis (e : exn) : string option =
  match e with
  | Budget.Exhausted _ | Diag.Error _ | Chaos.Injected _
  | Dcir_machine.Machine.Fault _ | Dcir_mlir.Interp.Trap _
  | Dcir_sdfg.Interp.Trap _ ->
      Some (Pipelines.classify_exn e)
  | _ -> None

(* The chaos sub-seed must not collide with the program seed (both are
   splitmix64 streams), so fold in a distinct tag. *)
let chaos_seed (campaign_seed : int) (i : int) : int =
  Rng.derive (campaign_seed lxor 0x5eed_c4a0) i

(** The fault plan of case [i] ([case]) of a campaign seeded [seed]. Emits
    the case's [CHAOS-CASE] event: its index, program seed, the plan's
    fault kinds and whether it runs checked. The coverage campaign
    records its cases with this too. *)
let case_plan ~(seed : int) (i : int) (case : Gen.case) : Chaos.plan =
  let plan = Chaos.plan ~seed:(chaos_seed seed i) () in
  Events.emit ~code:"CHAOS-CASE"
    [
      ("case", Json.Int i);
      ("case_seed", Json.Int case.Gen.seed);
      ( "faults",
        Json.List
          (List.map (fun f -> Json.Str (Chaos.fault_name f)) plan.Chaos.pl_faults)
      );
      ("checked", Json.Bool plan.Chaos.pl_checked);
    ];
  plan

(** Emit case [i]'s [CHAOS-OUTCOME] event: its verdict [outcome] and, for a
    case that ended in an exception, its classification code as
    [reason]. *)
let emit_outcome (i : int) (outcome : string) (reason : string option) : unit
    =
  Events.emit ~code:"CHAOS-OUTCOME"
    ([ ("case", Json.Int i); ("outcome", Json.Str outcome) ]
    @ match reason with Some r -> [ ("reason", Json.Str r) ] | None -> [])

let run_case ~(seed : int) (i : int) : case_result =
  let case = Gen.generate (Rng.derive seed i) in
  let plan = case_plan ~seed i case in
  (* Reference before any chaos: the baseline must stay pristine. *)
  let reference =
    let m = Dcir_cfront.Polygeist.compile case.Gen.src in
    Pipelines.run (Pipelines.CMlir m) ~entry:case.Gen.entry (case.Gen.args ())
  in
  Chaos.install plan;
  let outcome =
    Fun.protect ~finally:Chaos.clear (fun () ->
        match
          let compiled, report =
            Pipelines.compile_resilient ~checked:plan.Chaos.pl_checked
              Pipelines.Dcir ~src:case.Gen.src ~entry:case.Gen.entry
          in
          let r =
            Pipelines.run ~budget:(Budget.create ()) compiled
              ~entry:case.Gen.entry (case.Gen.args ())
          in
          (report, r)
        with
        | report, r -> (
            match Oracle.divergence reference r with
            | Some msg -> Wrong msg
            | None ->
                if report.Pipelines.res_landed = report.Pipelines.res_requested
                then Correct
                else Degraded_correct)
        | exception e -> (
            match diagnosis e with
            | Some code -> Diagnosed code
            | None -> Escaped (Pipelines.classify_exn e)))
  in
  emit_outcome i (outcome_name outcome)
    (match outcome with
    | Diagnosed code | Escaped code -> Some code
    | Correct | Degraded_correct | Wrong _ -> None);
  {
    cr_index = i;
    cr_seed = case.Gen.seed;
    cr_faults = plan.Chaos.pl_faults;
    cr_outcome = outcome;
  }

(** Run the chaos campaign: [count] cases from [seed]. [on_case] fires
    after each verdict (progress output). The returned stream carries
    every event of the campaign, oldest first. *)
let run ?(on_case : (case_result -> unit) option) ~(count : int) ~(seed : int)
    () : report =
  let evs = Events.create () in
  Events.install evs;
  Fun.protect
    ~finally:(fun () ->
      Events.clear ();
      Chaos.clear ())
    (fun () ->
      let cases = ref [] in
      for i = 0 to count - 1 do
        let cr = run_case ~seed i in
        (match on_case with Some f -> f cr | None -> ());
        cases := cr :: !cases
      done;
      { ch_count = count; ch_seed = seed; ch_cases = List.rev !cases;
        ch_events = evs })

let header (r : report) : (string * Json.t) list =
  [ ("tool", Json.Str "dcir fuzz --chaos"); ("seed", Json.Int r.ch_seed);
    ("cases", Json.Int r.ch_count) ]

let events_json (r : report) : Json.t =
  Events.to_json ~header:(header r) r.ch_events

let write_events (r : report) (path : string) : unit =
  Events.write ~header:(header r) r.ch_events path
