(** Deterministic resource budgets.

    Every phase of the pipeline is governed by counted resources rather
    than wall clocks: interpreter steps (one per executed op / closure),
    optimization fuel (one unit per admitted pass application), and
    machine-model allocations. Counting is deterministic, so a budget that
    trips on one machine trips at exactly the same point everywhere —
    which is what makes exhaustion testable and chaos campaigns
    reproducible.

    Exhaustion raises the structured {!Exhausted} exception naming the
    resource and its ceiling; callers map it to an [E-BUDGET-*]
    diagnostic (CLI) or a degradation-ladder retry (pipelines). *)

type kind = Steps | Fuel | Allocs

let kind_name = function
  | Steps -> "interpreter-step"
  | Fuel -> "optimization-fuel"
  | Allocs -> "allocation"

let kind_code = function
  | Steps -> "E-BUDGET-STEPS"
  | Fuel -> "E-BUDGET-FUEL"
  | Allocs -> "E-BUDGET-ALLOCS"

let kind_flag = function
  | Steps -> "--max-steps"
  | Fuel -> "--max-fuel"
  | Allocs -> "--max-allocs"

type limits = { max_steps : int; max_fuel : int; max_allocs : int }

(* [max_steps] matches the historical hard-coded SDFG interpreter trap;
   the other two are sized so no legitimate workload in the repo gets
   near them while still bounding pathological inputs. *)
let default = { max_steps = 200_000_000; max_fuel = 1_000_000; max_allocs = 10_000_000 }

type t = {
  limits : limits;
  mutable steps : int;
  mutable fuel : int;
  mutable allocs : int;
}

exception Exhausted of kind * int

let () =
  Printexc.register_printer (function
    | Exhausted (k, limit) ->
        Some
          (Printf.sprintf "Budget.Exhausted(%s budget, limit %d)" (kind_name k)
             limit)
    | _ -> None)

let message (k : kind) (limit : int) : string =
  Printf.sprintf "%s budget exhausted (limit %d; raise with %s)" (kind_name k)
    limit (kind_flag k)

let create ?(limits = default) () : t = { limits; steps = 0; fuel = 0; allocs = 0 }

(* Fresh counters under the same ceilings: parallel map chunks each count
   from zero (mirroring the executor's fixed-schedule determinism) and
   are folded back with {!merge_steps} when the chunk settles. *)
let fork (b : t) : t = create ~limits:b.limits ()

let step (b : t) : unit =
  b.steps <- b.steps + 1;
  if b.steps > b.limits.max_steps then
    raise (Exhausted (Steps, b.limits.max_steps))

let burn_fuel (b : t) : unit =
  b.fuel <- b.fuel + 1;
  if b.fuel > b.limits.max_fuel then raise (Exhausted (Fuel, b.limits.max_fuel))

let alloc (b : t) : unit =
  b.allocs <- b.allocs + 1;
  if b.allocs > b.limits.max_allocs then
    raise (Exhausted (Allocs, b.limits.max_allocs))

(* Add a settled chunk's step count without re-checking the ceiling: the
   serial semantics only check at the next charge site, and the merge
   must not trap at a point the serial run would not. *)
let merge_steps ~(into : t) (from : t) : unit =
  into.steps <- into.steps + from.steps
