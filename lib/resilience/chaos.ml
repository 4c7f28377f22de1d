(** Seeded deterministic fault injection.

    A chaos {!plan} is derived from a seed and names concrete fault
    sites: "crash the Nth pass application", "corrupt the IR after the
    Nth pass application", "starve optimization fuel to F units", "fail
    machine allocation #K". Plans are installed ambiently for the
    duration of one case; instrumented code (pass drivers, the machine
    model, the degradation ladder) consults the plan at each site. All
    decisions are pure functions of the plan plus deterministic site
    counters, so a campaign replayed with the same seed injects exactly
    the same faults at exactly the same points.

    Crash and corrupt sites fire at most once per installed plan: after a
    fault fires, retries at lower optimization tiers see a clean pipeline
    past that site, which is precisely the recovery the degradation
    ladder is supposed to deliver. *)

type fault =
  | Pass_crash
  | Corrupt_rewrite
  | Fuel_starvation
  | Alloc_failure
  | Worker_kill  (** kill the serve worker mid-attempt *)
  | Poison_result  (** worker reports success with a corrupted result *)

let fault_name = function
  | Pass_crash -> "pass-crash"
  | Corrupt_rewrite -> "corrupt-rewrite"
  | Fuel_starvation -> "fuel-starvation"
  | Alloc_failure -> "alloc-failure"
  | Worker_kill -> "worker-kill"
  | Poison_result -> "poison-result"

(* The kinds [plan] derives from a seed. Worker faults are armed
   separately (see {!arm_worker}) so that extending the fault vocabulary
   never perturbs the RNG draw sequence of existing campaigns. *)
let all_faults = [ Pass_crash; Corrupt_rewrite; Fuel_starvation; Alloc_failure ]

exception Injected of fault * string

let () =
  Printexc.register_printer (function
    | Injected (f, site) ->
        Some (Printf.sprintf "Chaos.Injected(%s at %s)" (fault_name f) site)
    | _ -> None)

(* Private splitmix64 stream — resilience sits below lib/fuzz in the
   dependency order, so it cannot reuse Dcir_fuzz.Rng. *)
module Rng = struct
  type t = { mutable state : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let make (seed : int) : t = { state = Int64.of_int seed }

  let next (t : t) : int64 =
    t.state <- Int64.add t.state golden;
    let z = t.state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
    Int64.logxor z (Int64.shift_right_logical z 31)

  let int (t : t) (bound : int) : int =
    Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

  let bool (t : t) : bool = int t 2 = 0
end

type plan = {
  pl_seed : int;
  pl_faults : fault list;  (** fault kinds armed by this plan *)
  crash_at : int option;  (** pass-application index that raises *)
  corrupt_at : int option;  (** pass-application index whose result is corrupted *)
  starved_fuel : int option;  (** fuel ceiling override *)
  fail_alloc : int option;  (** machine allocation ordinal that faults *)
  pl_checked : bool;  (** exercise checked (rollback) or unchecked (ladder) recovery *)
  kill_at : int option;
      (** worker-kill site: [Some 0] kills before the compile, any other
          value kills after the compile but before the result is
          reported *)
  poison : bool;  (** corrupt the reported result of a successful attempt *)
}

(** Derive a plan from [seed]: one or two armed fault kinds with small
    site indices, biased so every kind appears often across a campaign. *)
let plan ~(seed : int) () : plan =
  let rng = Rng.make seed in
  let primary = List.nth all_faults (Rng.int rng 4) in
  let faults =
    if Rng.int rng 3 = 0 then
      let secondary = List.nth all_faults (Rng.int rng 4) in
      if secondary = primary then [ primary ] else [ primary; secondary ]
    else [ primary ]
  in
  let site ~has bound = if has then Some (Rng.int rng bound) else None in
  {
    pl_seed = seed;
    pl_faults = faults;
    crash_at = site ~has:(List.mem Pass_crash faults) 24;
    corrupt_at = site ~has:(List.mem Corrupt_rewrite faults) 24;
    starved_fuel = site ~has:(List.mem Fuel_starvation faults) 12;
    fail_alloc =
      (match site ~has:(List.mem Alloc_failure faults) 10 with
      | Some k -> Some (k + 1) (* allocation ordinals are 1-based *)
      | None -> None);
    pl_checked = Rng.bool rng;
    kill_at = None;
    poison = false;
  }

(** A plan that injects nothing — the base for worker-only fault plans. *)
let no_faults ~(seed : int) : plan =
  {
    pl_seed = seed;
    pl_faults = [];
    crash_at = None;
    corrupt_at = None;
    starved_fuel = None;
    fail_alloc = None;
    pl_checked = false;
    kill_at = None;
    poison = false;
  }

(** Arm worker faults on top of an existing plan. Worker faults live in
    their own plan fields (never in the seeded draw sequence of {!plan}),
    so campaigns that predate them replay byte-identically. *)
let arm_worker ?(kill_at : int option) ?(poison = false) (p : plan) : plan =
  let faults =
    (if kill_at <> None then [ Worker_kill ] else [])
    @ (if poison then [ Poison_result ] else [])
    @ p.pl_faults
  in
  { p with pl_faults = faults; kill_at; poison }

(* Ambient installation with per-install site counters. *)
type armed = {
  arm_plan : plan;
  mutable pass_tick : int;
  mutable crash_fired : bool;
  mutable corrupt_fired : bool;
}

(* Domain-local, so each serve worker domain arms and consults its own
   plan: a fault injected into one worker's attempt can never leak into a
   sibling domain's compile. Single-domain callers see the old ambient
   semantics unchanged. *)
let ambient : armed option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let install (p : plan) : unit =
  Domain.DLS.set ambient
    (Some { arm_plan = p; pass_tick = 0; crash_fired = false; corrupt_fired = false })

let clear () : unit = Domain.DLS.set ambient None

let active () : plan option =
  Option.map (fun a -> a.arm_plan) (Domain.DLS.get ambient)

(** Consult the plan at a pass-application site. Advances the site
    counter; returns the action the caller must take. *)
let tick_pass () : [ `Ok | `Crash | `Corrupt ] =
  match Domain.DLS.get ambient with
  | None -> `Ok
  | Some a ->
      let i = a.pass_tick in
      a.pass_tick <- i + 1;
      if (not a.crash_fired) && a.arm_plan.crash_at = Some i then (
        a.crash_fired <- true;
        `Crash)
      else if (not a.corrupt_fired) && a.arm_plan.corrupt_at = Some i then (
        a.corrupt_fired <- true;
        `Corrupt)
      else `Ok

(** Fuel ceiling for the next compile attempt: starved if armed. *)
let fuel_limit ~(default : int) : int =
  match Domain.DLS.get ambient with
  | Some { arm_plan = { starved_fuel = Some f; _ }; _ } -> min f default
  | _ -> default

(** Allocation ordinal (1-based) that must fault, if armed. *)
let alloc_failure_at () : int option =
  match Domain.DLS.get ambient with
  | Some { arm_plan = { fail_alloc; _ }; _ } -> fail_alloc
  | None -> None

(** Armed worker-kill site, if any ([Some 0] = before compile). *)
let worker_kill_at () : int option =
  match Domain.DLS.get ambient with
  | Some { arm_plan = { kill_at; _ }; _ } -> kill_at
  | None -> None
