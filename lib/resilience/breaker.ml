(** Per-pass circuit breaker shared by both pass drivers.

    Replaces the permanent-disable hashtables from checked execution:
    a pass that fails (rolled-back rewrite, crash) trips its breaker
    [Open] after [trip_after] incidents; after [cooldown_rounds] fixpoint
    rounds the breaker re-admits the pass on [Probation], and
    [probation_successes] clean applications re-close it. A failure
    during probation re-opens immediately. State is session-scoped — a
    breaker instance lives as long as its owner (one compilation, one
    fuzz case, one accumulated driver run) and is never persisted. *)

type config = {
  trip_after : int;  (** consecutive failures before opening *)
  cooldown_rounds : int;  (** fixpoint rounds spent open before probation *)
  probation_successes : int;  (** clean applications before re-closing *)
}

let default_config = { trip_after = 1; cooldown_rounds = 2; probation_successes = 2 }

(** Build a config by overriding individual thresholds; defaults are the
    historical constants in {!default_config}. [dcir serve] exposes these
    as [--trip-after] / [--cooldown] / [--probation] flags for its
    per-tenant breakers. Thresholds must be at least 1. *)
let make_config ?(trip_after = default_config.trip_after)
    ?(cooldown_rounds = default_config.cooldown_rounds)
    ?(probation_successes = default_config.probation_successes) () : config =
  if trip_after < 1 || cooldown_rounds < 1 || probation_successes < 1 then
    invalid_arg "Breaker.make_config: thresholds must be >= 1";
  { trip_after; cooldown_rounds; probation_successes }

type phase =
  | Closed
  | Open of int  (** rounds spent open so far *)
  | Probation of int  (** clean applications so far *)

type entry = { mutable phase : phase; mutable consecutive : int; mutable failures : int }

type t = { config : config; entries : (string, entry) Hashtbl.t; mutable round : int }

let create ?(config = default_config) () : t =
  { config; entries = Hashtbl.create 8; round = 0 }

let entry (b : t) (pass : string) : entry =
  match Hashtbl.find_opt b.entries pass with
  | Some e -> e
  | None ->
      let e = { phase = Closed; consecutive = 0; failures = 0 } in
      Hashtbl.replace b.entries pass e;
      e

let state_name (b : t) (pass : string) : string =
  match (entry b pass).phase with
  | Closed -> "closed"
  | Open _ -> "open"
  | Probation _ -> "probation"

(** Total failures recorded against [pass] so far this session. *)
let failure_count (b : t) (pass : string) : int = (entry b pass).failures

(** May this pass run right now? Open breakers reject; probation admits. *)
let admits (b : t) (pass : string) : bool =
  match (entry b pass).phase with Open _ -> false | Closed | Probation _ -> true

let transition (b : t) (pass : string) (e : entry) (next : phase) ~(why : string)
    : unit =
  e.phase <- next;
  let code =
    match next with
    | Closed -> "BRK-CLOSE"
    | Open _ -> "BRK-OPEN"
    | Probation _ -> "BRK-PROBATION"
  in
  Dcir_obs.Events.emit ~code
    [
      ("pass", Dcir_obs.Json.Str pass);
      ("round", Dcir_obs.Json.Int b.round);
      ("detail", Dcir_obs.Json.Str why);
    ]

let record_failure (b : t) (pass : string) : unit =
  let e = entry b pass in
  e.failures <- e.failures + 1;
  e.consecutive <- e.consecutive + 1;
  match e.phase with
  | Probation _ ->
      transition b pass e (Open 0) ~why:"failed during probation"
  | Closed when e.consecutive >= b.config.trip_after ->
      transition b pass e (Open 0)
        ~why:
          (Printf.sprintf "tripped after %d incident%s" e.consecutive
             (if e.consecutive = 1 then "" else "s"))
  | Closed | Open _ -> ()

let record_success (b : t) (pass : string) : unit =
  let e = entry b pass in
  e.consecutive <- 0;
  match e.phase with
  | Probation n ->
      if n + 1 >= b.config.probation_successes then
        transition b pass e Closed
          ~why:
            (Printf.sprintf "re-closed after %d clean application%s" (n + 1)
               (if n + 1 = 1 then "" else "s"))
      else e.phase <- Probation (n + 1)
  | Closed | Open _ -> ()

(** Advance one fixpoint round: open breakers age toward probation. *)
let end_round (b : t) : unit =
  b.round <- b.round + 1;
  Hashtbl.iter
    (fun pass e ->
      match e.phase with
      | Open r ->
          if r + 1 >= b.config.cooldown_rounds then
            transition b pass e (Probation 0)
              ~why:
                (Printf.sprintf "probation after %d cooldown round%s" (r + 1)
                   (if r + 1 = 1 then "" else "s"))
          else e.phase <- Open (r + 1)
      | Closed | Probation _ -> ())
    b.entries

let total_failures (b : t) : int =
  Hashtbl.fold (fun _ e acc -> acc + e.failures) b.entries 0
