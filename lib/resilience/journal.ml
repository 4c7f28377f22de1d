(** Incident journal (schema [dcir-incidents/1]).

    A journal collects structured incident records — pass rollbacks,
    circuit-breaker transitions, budget exhaustions, injected faults,
    tier degradations, chaos case outcomes — and serializes them through
    the in-repo JSON emitter. Records carry sequence numbers instead of
    timestamps and never embed randomized paths, so a campaign replayed
    with the same seed produces a byte-identical journal. The journal is
    a {!Dcir_obs.Events.t} log whose codes are the incident kinds; make
    one with [Events.create].

    Producers report through the ambient {!note} hook, which is a no-op
    unless a journal is {!install}ed; the drivers and the resilience
    machinery stay journal-agnostic.

    Every record is also forwarded onto the ambient decision-event stream
    ([Dcir_obs.Events]) under the corresponding stable event code, so a
    single [dcir-events/1] stream carries incidents and ordinary
    optimization decisions in one causal order. The journal's own schema
    and byte-for-byte determinism are unchanged by the forwarding. *)

module Json = Dcir_obs.Json
module Events = Dcir_obs.Events

type t = Events.t

(* Journal kind -> decision-event code. [None] suppresses forwarding:
   "degraded" is covered by the richer TIER-LAND event emitted directly by
   the degradation ladder. *)
let event_code_of_kind : string -> string option = function
  | "pass-rollback" -> Some "PASS-ROLLBACK"
  | "breaker-open" -> Some "BRK-OPEN"
  | "breaker-probation" -> Some "BRK-PROBATION"
  | "breaker-close" -> Some "BRK-CLOSE"
  | "chaos-injected" -> Some "CHAOS-INJECT"
  | "tier-failed" -> Some "TIER-FAIL"
  | "chaos-case" -> Some "CHAOS-CASE"
  | "case-outcome" -> Some "CHAOS-OUTCOME"
  | "degraded" -> None
  | _ -> Some "NOTE"

let forward (kind : string) (fields : (string * Json.t) list) : unit =
  match event_code_of_kind kind with
  | Some code -> Events.emit ~code fields
  | None -> ()

let record (j : t) ~(kind : string) (fields : (string * Json.t) list) : unit =
  forward kind fields;
  Events.record j ~code:kind fields

(* Ambient journal: one per chaos campaign / CLI invocation. Domain-local
   so serve worker domains (which run compiles speculatively) never write
   into the supervisor's journal out of commit order. *)
let ambient : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let install (j : t) : unit = Domain.DLS.set ambient (Some j)
let clear () : unit = Domain.DLS.set ambient None

(* Even without an installed journal, notes still reach an installed event
   stream — [dcir explain] sees breaker/rollback incidents without
   arming a journal. *)
let note ~(kind : string) (fields : (string * Json.t) list) : unit =
  match Domain.DLS.get ambient with
  | None -> forward kind fields
  | Some j -> record j ~kind fields

let entry_json (e : Events.event) : Json.t =
  Json.Obj
    (("seq", Json.Int e.ev_seq) :: ("kind", Json.Str e.ev_code) :: e.ev_fields)

(* Per-kind counts, sorted by kind name for deterministic output. *)
let summary (j : t) : Json.t =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (e : Events.event) ->
      Hashtbl.replace counts e.ev_code
        (1 + Option.value ~default:0 (Hashtbl.find_opt counts e.ev_code)))
    (Events.events j);
  let kinds = Hashtbl.fold (fun k n acc -> (k, Json.Int n) :: acc) counts [] in
  Json.Obj (List.sort (fun (a, _) (b, _) -> compare a b) kinds)

let to_json ?(header = []) (j : t) : Json.t =
  Json.Obj
    ([ ("schema", Json.Str "dcir-incidents/1") ]
    @ header
    @ [
        ("incidents", Json.List (List.map entry_json (Events.events j)));
        ("summary", summary j);
      ])

let write ?header (j : t) (path : string) : unit =
  Dcir_support.Atomic_io.write path (fun oc ->
      output_string oc (Json.to_string (to_json ?header j));
      output_char oc '\n')
