(** [dcir explain]: decision provenance for one program.

    Compiles (and optionally executes) a program with the decision-event
    stream armed, then renders the stream as a human-readable causal
    narrative: which phases ran, which passes fired or were skipped (and
    by which breaker state), which loops the auto-parallelizer certified
    or refused (with the conflict witness), which tier the degradation
    ladder landed at, and what each phase cost in budgeted resources.
    Every line that explains a decision carries the stable event code in
    brackets, so narratives can be grepped and diffed across commits.

    The underlying stream is exposed ({!events}, {!write_events}) in the
    [dcir-events/1] schema; for a fixed input it is byte-identical across
    runs — the golden-test property. *)

module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Events = Dcir_obs.Events
module Budget = Dcir_resilience.Budget

type t = {
  ex_kind : Pipelines.kind;
  ex_entry : string;
  ex_events : Events.t;
  ex_report : Pipelines.resilience_report option;
      (** [None] when even the unoptimized rung failed *)
  ex_error : string option;  (** classified compile failure *)
  ex_run_error : string option;  (** classified execution failure *)
}

let events (x : t) : Events.t = x.ex_events

(** Compile [src] through the degradation ladder (checked passes, autopar
    on — the full decision surface) with a fresh event stream installed;
    when [run] is set, also execute the artifact. Failures are captured
    into the narrative instead of escaping. *)
let explain ?(limits = Budget.default)
    ?(checked = true) ?(run = true) ?(jobs = 1)
    ?(interp : Pipelines.interp_mode = `Compiled) (kind : Pipelines.kind)
    ~(src : string) ~(entry : string) ~(args : unit -> Pipelines.arg list) ()
    : t =
  let evs = Events.create () in
  Events.install evs;
  Fun.protect ~finally:Events.clear (fun () ->
      match
        Pipelines.compile_resilient ~limits ~checked ~autopar:true kind
          ~src ~entry
      with
      | compiled, report ->
          let run_error =
            if not run then None
            else begin
              Events.emit ~code:"PHASE" [ ("name", Json.Str "execute") ];
              match
                Pipelines.run ~budget:(Budget.create ~limits ()) ~jobs
                  ~interp_mode:interp compiled ~entry (args ())
              with
              | _ -> None
              | exception e ->
                  Some
                    (Pipelines.classify_exn e ^ ": " ^ Pipelines.describe_exn e)
            end
          in
          {
            ex_kind = kind;
            ex_entry = entry;
            ex_events = evs;
            ex_report = Some report;
            ex_error = None;
            ex_run_error = run_error;
          }
      | exception e ->
          {
            ex_kind = kind;
            ex_entry = entry;
            ex_events = evs;
            ex_report = None;
            ex_error =
              Some (Pipelines.classify_exn e ^ ": " ^ Pipelines.describe_exn e);
            ex_run_error = None;
          })

(* ------------------------------------------------------------------ *)
(* Rendering *)

let events_header (x : t) : (string * Json.t) list =
  [
    ("tool", Json.Str "dcir explain");
    ("pipeline", Json.Str (Pipelines.kind_name x.ex_kind));
    ("entry", Json.Str x.ex_entry);
  ]

let events_json (x : t) : Json.t =
  Events.to_json ~header:(events_header x) x.ex_events

let write_events (x : t) (path : string) : unit =
  Events.write ~header:(events_header x) x.ex_events path

(* PASS-ADMIT events are too numerous to narrate one per line; aggregate
   them per phase/tier section into "pass X: N run(s), M changed". *)
type admit_agg = {
  mutable agg_order : string list;  (* reversed *)
  agg_counts : (string, int * int) Hashtbl.t;
}

let new_agg () = { agg_order = []; agg_counts = Hashtbl.create 8 }

let agg_admit (a : admit_agg) (pass : string) (changed : bool) : unit =
  let runs, chg =
    Option.value ~default:(0, 0) (Hashtbl.find_opt a.agg_counts pass)
  in
  if runs = 0 then a.agg_order <- pass :: a.agg_order;
  Hashtbl.replace a.agg_counts pass
    (runs + 1, if changed then chg + 1 else chg)

let flush_agg (ppf : Format.formatter) (a : admit_agg) : unit =
  List.iter
    (fun pass ->
      let runs, chg = Hashtbl.find a.agg_counts pass in
      Format.fprintf ppf "    pass %-22s %d run(s), %d changed@." pass runs chg)
    (List.rev a.agg_order);
  a.agg_order <- [];
  Hashtbl.reset a.agg_counts

let pp (ppf : Format.formatter) (x : t) : unit =
  Format.fprintf ppf "explain: @%s via %s pipeline — %d decision event(s)@."
    x.ex_entry
    (Pipelines.kind_name x.ex_kind)
    (Events.length x.ex_events);
  (match x.ex_report with
  | Some r when r.Pipelines.res_landed = r.Pipelines.res_requested ->
      Format.fprintf ppf "tier: %s (no degradation)@."
        (Pipelines.tier_name r.Pipelines.res_landed)
  | Some r ->
      Format.fprintf ppf "tier: requested %s, landed %s@."
        (Pipelines.tier_name r.Pipelines.res_requested)
        (Pipelines.tier_name r.Pipelines.res_landed)
  | None -> ());
  (match x.ex_error with
  | Some e -> Format.fprintf ppf "compile failed: %s@." e
  | None -> ());
  let agg = new_agg () in
  let flush () = flush_agg ppf agg in
  List.iter
    (fun (e : Events.event) ->
      let s k = Events.str_field e k in
      let i k = Events.int_field e k in
      match e.Events.ev_code with
      | "TIER-TRY" ->
          flush ();
          Format.fprintf ppf "-- [TIER-TRY] attempting tier %s (%s) --@."
            (s "tier") (s "pipeline")
      | "PHASE" ->
          flush ();
          Format.fprintf ppf "  phase %s:@." (s "name")
      | "PASS-ADMIT" ->
          agg_admit agg (s "pass")
            (Events.field e "changed" = Some (Json.Bool true))
      | "PASS-LCM" ->
          flush ();
          if s "placement" = "local" then
            Format.fprintf ppf
              "    [PASS-LCM] %s: %d locally redundant %s occurrence(s) \
               reused@."
              (s "func") (i "deletes") (s "op")
          else
            Format.fprintf ppf
              "    [PASS-LCM] %s: moved %s to a %s insertion, %d \
               occurrence(s) deleted@."
              (s "func") (s "op") (s "placement") (i "deletes")
      | "PASS-SKIP" ->
          flush ();
          Format.fprintf ppf
            "    [PASS-SKIP] %s pass %s skipped: breaker %s after %d \
             failure(s)@."
            (s "domain") (s "pass") (s "breaker") (i "failures")
      | "PASS-ROLLBACK" ->
          flush ();
          Format.fprintf ppf
            "    [PASS-ROLLBACK] %s pass %s rolled back (round %d): %s@."
            (s "domain") (s "pass") (i "round") (s "reason")
      | "BRK-OPEN" ->
          flush ();
          Format.fprintf ppf "    [BRK-OPEN] breaker opened for %s: %s@."
            (s "pass") (s "detail")
      | "BRK-PROBATION" ->
          flush ();
          Format.fprintf ppf "    [BRK-PROBATION] %s re-admitted: %s@."
            (s "pass") (s "detail")
      | "BRK-CLOSE" ->
          flush ();
          Format.fprintf ppf "    [BRK-CLOSE] breaker closed for %s: %s@."
            (s "pass") (s "detail")
      | "APAR-CERT" ->
          flush ();
          Format.fprintf ppf
            "    [APAR-CERT] loop '%s' (sym %s): parallel — map state '%s' \
             [%s]@."
            (s "loop") (s "sym") (s "state") (s "classes")
      | "APAR-REFUSE" ->
          flush ();
          Format.fprintf ppf
            "    [APAR-REFUSE] loop '%s' (sym %s): not parallelized — %s@."
            (s "loop") (s "sym") (s "witness")
      | "BUDGET-SPEND" ->
          flush ();
          Format.fprintf ppf "    [BUDGET-SPEND] %s: %d %s@." (s "phase")
            (i "spent") (s "resource")
      | "TIER-FAIL" ->
          flush ();
          Format.fprintf ppf "  [TIER-FAIL] tier %s abandoned: %s@." (s "tier")
            (s "reason")
      | "TIER-LAND" ->
          flush ();
          if s "landed" = s "requested" then
            Format.fprintf ppf "  [TIER-LAND] landed at tier %s@." (s "landed")
          else
            Format.fprintf ppf
              "  [TIER-LAND] landed at tier %s (requested %s, dropped %d \
               optimization(s))@."
              (s "landed") (s "requested") (i "dropped")
      | "EXEC-MODE" ->
          flush ();
          Format.fprintf ppf
            "    [EXEC-MODE] %s interpreter, %s tier, %d job(s)@." (s "ir")
            (s "mode") (i "jobs")
      | "CHAOS-INJECT" ->
          flush ();
          Format.fprintf ppf "    [CHAOS-INJECT] injected fault: %s@."
            (s "fault")
      | _ -> ())
    (Events.events x.ex_events);
  flush ();
  (match x.ex_run_error with
  | Some e -> Format.fprintf ppf "execution failed: %s@." e
  | None -> ());
  (* Decision totals, computed from the stream itself. *)
  let count code = List.length (Events.with_code x.ex_events code) in
  Format.fprintf ppf
    "summary: %d loop(s) certified, %d refused; %d rollback(s)@."
    (count "APAR-CERT") (count "APAR-REFUSE") (count "PASS-ROLLBACK")

let to_string (x : t) : string = Format.asprintf "%a" pp x
