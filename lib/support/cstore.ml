(** Content-addressed artifact store: sharded buckets, per-shard LRU
    eviction, configurable capacity.

    The store maps string keys (content digests, see {!Digest}) to
    arbitrary artifacts. Keys are distributed over [shards] buckets by
    {!Digest.shard_of} — a pure function of the key — and each bucket
    evicts least-recently-used entries once it reaches its slice of the
    total [capacity]. Recency is a logical access counter, not a clock,
    so the full hit/miss/evict trajectory of a store is a deterministic
    function of the operation sequence: two runs that perform the same
    lookups and insertions observe byte-identical telemetry.

    Capacity edge cases are first-class: [capacity = 0] disables the
    store entirely ([find] always misses, [add] stores nothing), and
    [capacity < shards] collapses to fewer shards rather than starving
    buckets. The eviction callback receives every displaced [(key,
    artifact)] pair so callers can count and journal evictions. *)

type 'a entry = {
  e_key : string;
  mutable e_value : 'a;
  mutable e_last_use : int;  (** logical access counter at last touch *)
}

type 'a t = {
  capacity : int;  (** total entries across all shards *)
  shard_tbl : 'a entry list array;
  mutable clock : int;  (** logical access counter *)
  mutable count : int;  (** live entries *)
}

(** [create ~capacity ?shards ()] — [shards] defaults to 4; clamped to
    [capacity] so every shard can hold at least one entry. *)
let create ?(shards = 4) ~(capacity : int) () : 'a t =
  if capacity < 0 then invalid_arg "Cstore.create: negative capacity";
  if shards < 1 then invalid_arg "Cstore.create: shards must be >= 1";
  let shards = max 1 (min shards capacity) in
  { capacity; shard_tbl = Array.make shards []; clock = 0; count = 0 }

let capacity (t : 'a t) : int = t.capacity
let length (t : 'a t) : int = t.count

(* Shard slice of the total capacity: even split, remainder to the
   lowest-indexed shards (deterministic). *)
let shard_capacity (t : 'a t) (i : int) : int =
  let n = Array.length t.shard_tbl in
  (t.capacity / n) + if i < t.capacity mod n then 1 else 0

let shard_index (t : 'a t) (key : string) : int =
  Digest.shard_of key ~shards:(Array.length t.shard_tbl)

let touch (t : 'a t) (e : 'a entry) : unit =
  t.clock <- t.clock + 1;
  e.e_last_use <- t.clock

(** [find t key] — the stored artifact, bumping its recency; [None] on
    miss (always, when the store has zero capacity). *)
let find (t : 'a t) (key : string) : 'a option =
  if t.capacity = 0 then None
  else
    let i = shard_index t key in
    match List.find_opt (fun e -> String.equal e.e_key key) t.shard_tbl.(i) with
    | Some e ->
        touch t e;
        Some e.e_value
    | None -> None

let mem (t : 'a t) (key : string) : bool =
  t.capacity > 0
  && List.exists
       (fun e -> String.equal e.e_key key)
       t.shard_tbl.(shard_index t key)

(* Least-recently-used entry of a shard; ties cannot arise (the logical
   clock is strictly increasing). *)
let lru (entries : 'a entry list) : 'a entry option =
  List.fold_left
    (fun acc e ->
      match acc with
      | Some best when best.e_last_use <= e.e_last_use -> acc
      | _ -> Some e)
    None entries

(** [add t key v] — insert (or refresh) [key]; returns the evicted
    [(key, artifact)] pairs, oldest first (at most one per call; [[]]
    when the shard had room, the key was already present, or the store
    has zero capacity — in which case nothing is stored either). *)
let add (t : 'a t) (key : string) (v : 'a) : (string * 'a) list =
  if t.capacity = 0 then []
  else
    let i = shard_index t key in
    match List.find_opt (fun e -> String.equal e.e_key key) t.shard_tbl.(i) with
    | Some e ->
        e.e_value <- v;
        touch t e;
        []
    | None ->
        let cap = shard_capacity t i in
        let evicted =
          if List.length t.shard_tbl.(i) >= cap then
            match lru t.shard_tbl.(i) with
            | Some victim ->
                t.shard_tbl.(i) <-
                  List.filter (fun e -> e != victim) t.shard_tbl.(i);
                t.count <- t.count - 1;
                [ (victim.e_key, victim.e_value) ]
            | None -> []
          else []
        in
        t.clock <- t.clock + 1;
        t.shard_tbl.(i) <-
          { e_key = key; e_value = v; e_last_use = t.clock } :: t.shard_tbl.(i);
        t.count <- t.count + 1;
        evicted

(** Drop every entry (capacity and shard layout are retained). *)
let clear (t : 'a t) : unit =
  Array.iteri (fun i _ -> t.shard_tbl.(i) <- []) t.shard_tbl;
  t.count <- 0;
  t.clock <- 0

(** Keys currently stored, sorted (deterministic — for telemetry and
    tests, not for lookup). *)
let keys (t : 'a t) : string list =
  Array.to_list t.shard_tbl
  |> List.concat_map (fun es -> List.map (fun e -> e.e_key) es)
  |> List.sort compare
