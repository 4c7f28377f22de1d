(** Structured decision-event stream (JSON schema [dcir-events/1]).

    Every consequential decision the compiler makes — pass admitted or
    skipped, loop certified or refused, breaker tripped, tier degraded —
    is recorded as one event: a stable upper-case code, a
    monotonically increasing sequence number, and a flat field list. No
    timestamps, no heap addresses, no absolute paths: two runs with the
    same inputs and seed must produce byte-identical streams, which is
    what lets us golden-test provenance and diff it across commits.

    Emission follows the ambient-install pattern: sites call {!emit}
    unconditionally; it is a no-op unless a stream is {!install}ed.
    Incidents (rollbacks, breaker transitions, injected faults, failed
    ladder rungs) are events like any other, so one stream carries them
    and the optimization decisions in one causal order. *)

type event = {
  ev_seq : int;
  ev_code : string;
  ev_fields : (string * Json.t) list;
}

type t = { mutable rev_events : event list; mutable next_seq : int }

let create () : t = { rev_events = []; next_seq = 0 }
let length (t : t) : int = t.next_seq
let events (t : t) : event list = List.rev t.rev_events

(** The closed catalogue of event codes, with one-line meanings.
    [validate_report.exe] rejects streams containing codes outside this
    list, so additions here are schema changes. *)
let catalogue : (string * string) list =
  [
    ("PHASE", "compilation/execution phase boundary");
    ("TIER-TRY", "degradation ladder: attempting an optimization tier");
    ("TIER-FAIL", "degradation ladder: tier abandoned (code + detail)");
    ("TIER-LAND", "degradation ladder: tier that produced the artifact");
    ("PASS-ADMIT", "pass driver: pass ran (changed flag, domain, round)");
    ("PASS-SKIP", "pass driver: pass skipped by an open circuit breaker");
    ("PASS-ROLLBACK", "checked pass application failed and was rolled back");
    ("PASS-LCM", "lazy code motion: one realized motion (op, placement, deletes)");
    ("BRK-OPEN", "circuit breaker opened for a pass");
    ("BRK-PROBATION", "circuit breaker moved to probation");
    ("BRK-CLOSE", "circuit breaker closed after a clean probe");
    ("APAR-CERT", "autopar: loop certified parallel (map conversion)");
    ("APAR-REFUSE", "autopar: loop refused, with the conflict witness");
    ("BUDGET-SPEND", "resource budget spent by a phase (fuel/steps/allocs)");
    ("EXEC-MODE", "interpreter mode chosen for a run (tree/compiled, jobs)");
    ("CHAOS-INJECT", "chaos harness injected a fault");
    ("CHAOS-CASE", "chaos campaign: generated case summary");
    ("CHAOS-OUTCOME", "chaos campaign: per-case verdict");
    (* Serving engine (dcir serve) — mirrored from the response journal
       (schema dcir-serve-journal/3, see Dcir_serve.Sjournal). *)
    ("SRV-ADMIT", "serve: request admitted to the queue");
    ("SRV-REJECT", "serve: request rejected fast (breaker/quota/malformed)");
    ("SRV-SHED", "serve: request shed from a full admission queue");
    ("SRV-DEADLINE", "serve: request expired its budget-step deadline");
    ("SRV-RETRY", "serve: failed attempt re-queued at a lower tier");
    ("SRV-DONE", "serve: request completed");
    ("SRV-FAIL", "serve: request failed terminally");
    ("SRV-BRK-OPEN", "serve: per-tenant breaker opened");
    ("SRV-BRK-PROBATION", "serve: per-tenant breaker moved to probation");
    ("SRV-BRK-CLOSE", "serve: per-tenant breaker re-closed");
    ("SRV-WORKER-KILL", "serve: worker killed mid-attempt by a chaos fault");
    ("SRV-WORKER-POISON", "serve: worker result failed supervisor validation");
    ("SRV-WORKER-WATCHDOG", "serve: attempt stopped by the budget-step watchdog");
    ("SRV-WORKER-CRASH", "serve: worker raised outside the attempt path");
  ]

let is_known (code : string) : bool = List.mem_assoc code catalogue

let record (t : t) ~(code : string) (fields : (string * Json.t) list) : unit =
  t.rev_events <-
    { ev_seq = t.next_seq; ev_code = code; ev_fields = fields }
    :: t.rev_events;
  t.next_seq <- t.next_seq + 1

(* Ambient stream: decision sites emit without plumbing a handle through
   every signature. Domain-local: a serve worker domain sees no installed
   stream, so its speculative emissions are dropped and the supervisor
   replays the decisions it commits — the stream stays a deterministic
   function of commit order, not of scheduling. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let install (t : t) : unit = Domain.DLS.set ambient (Some t)
let clear () : unit = Domain.DLS.set ambient None
let active () : bool = Option.is_some (Domain.DLS.get ambient)

let emit ~(code : string) (fields : (string * Json.t) list) : unit =
  match Domain.DLS.get ambient with
  | Some t -> record t ~code fields
  | None -> ()

let event_json (e : event) : Json.t =
  Json.Obj
    (("seq", Json.Int e.ev_seq) :: ("code", Json.Str e.ev_code) :: e.ev_fields)

(** [to_json ?header t] — the [dcir-events/1] document. [header] fields
    (tool, seed, entry, ...) are spliced in after the schema tag; keep
    them deterministic. *)
let to_json ?(header : (string * Json.t) list = []) (t : t) : Json.t =
  Json.Obj
    (("schema", Json.Str "dcir-events/1")
    :: (header
       @ [
           ("count", Json.Int (length t));
           ("events", Json.List (List.map event_json (events t)));
         ]))

let to_string ?header (t : t) : string = Json.to_string (to_json ?header t)

let write ?header (t : t) (path : string) : unit =
  Dcir_support.Atomic_io.write path (fun oc ->
      output_string oc (to_string ?header t);
      output_char oc '\n')

(* Field accessors used by renderers and tests. *)
let field (e : event) (key : string) : Json.t option =
  List.assoc_opt key e.ev_fields

let str_field ?(default = "") (e : event) (key : string) : string =
  match field e key with Some (Json.Str s) -> s | _ -> default

let int_field ?(default = 0) (e : event) (key : string) : int =
  match field e key with Some (Json.Int n) -> n | _ -> default

let with_code (t : t) (code : string) : event list =
  List.filter (fun e -> e.ev_code = code) (events t)
