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
    the campaign. Every decision is a pure function of the campaign seed,
    and journal records carry stable classification codes rather than
    raw exception text, so replaying a seed reproduces the incident
    journal byte-for-byte. *)

module Pipelines = Dcir_core.Pipelines
module Diag = Dcir_support.Diagnostics
module Budget = Dcir_resilience.Budget
module Chaos = Dcir_resilience.Chaos
module Journal = Dcir_resilience.Journal
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
  ch_journal : Journal.t;
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

let run_case ~(journal : Journal.t) ~(seed : int) (i : int) : case_result =
  let case = Gen.generate (Rng.derive seed i) in
  (* Reference before any chaos: the baseline must stay pristine. *)
  let reference =
    let m = Dcir_cfront.Polygeist.compile case.Gen.src in
    Pipelines.run (Pipelines.CMlir m) ~entry:case.Gen.entry (case.Gen.args ())
  in
  let plan = Chaos.plan ~seed:(chaos_seed seed i) () in
  Journal.record journal ~kind:"chaos-case"
    [
      ("case", Json.Int i);
      ("case_seed", Json.Int case.Gen.seed);
      ( "faults",
        Json.List
          (List.map (fun f -> Json.Str (Chaos.fault_name f)) plan.Chaos.pl_faults)
      );
      ("checked", Json.Bool plan.Chaos.pl_checked);
    ];
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
  Journal.record journal ~kind:"case-outcome"
    ([ ("case", Json.Int i); ("outcome", Json.Str (outcome_name outcome)) ]
    @
    match outcome with
    | Diagnosed code | Escaped code -> [ ("code", Json.Str code) ]
    | Correct | Degraded_correct | Wrong _ -> []);
  {
    cr_index = i;
    cr_seed = case.Gen.seed;
    cr_faults = plan.Chaos.pl_faults;
    cr_outcome = outcome;
  }

(** Run the chaos campaign: [count] cases from [seed]. [on_case] fires
    after each verdict (progress output). The returned journal carries
    every incident of the campaign, oldest first, and serializes under
    schema [dcir-incidents/1] with the campaign header. *)
let run ?(on_case : (case_result -> unit) option) ~(count : int) ~(seed : int)
    () : report =
  let journal = Dcir_obs.Events.create () in
  Journal.install journal;
  Fun.protect
    ~finally:(fun () ->
      Journal.clear ();
      Chaos.clear ())
    (fun () ->
      let cases = ref [] in
      for i = 0 to count - 1 do
        let cr = run_case ~journal ~seed i in
        (match on_case with Some f -> f cr | None -> ());
        cases := cr :: !cases
      done;
      { ch_count = count; ch_seed = seed; ch_cases = List.rev !cases;
        ch_journal = journal })

let header (r : report) : (string * Json.t) list =
  [ ("campaign", Json.Str "chaos"); ("seed", Json.Int r.ch_seed);
    ("count", Json.Int r.ch_count) ]

let journal_json (r : report) : Json.t =
  Journal.to_json ~header:(header r) r.ch_journal

let write_journal (r : report) (path : string) : unit =
  Journal.write ~header:(header r) r.ch_journal path
