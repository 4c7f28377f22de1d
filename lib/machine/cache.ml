(** A single level of set-associative cache with LRU replacement.

    Together with {!Hierarchy} this substitutes for the paper's Xeon Gold
    6130 testbed and PAPI counters: the paper explains the deriche result
    via L2/L3 miss ratios, so the model must expose per-level miss counts
    that respond to access-order changes (e.g. Polygeist's loop inversion). *)

type t = {
  name : string;
  sets : int;
  set_mask : int;  (** [sets - 1]; [sets] is a power of two *)
  assoc : int;
  line_bytes : int;
  ways : int array array;
      (** per set: [assoc] tags (-1 = invalid), then [assoc] LRU
          timestamps; {!untouched} until the set's first access *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

(* Shared by every set never accessed since creation or {!reset}: a
   simulated run touches few of the L3's 32k sets, and allocating all of
   them up front cost more than a small run itself. *)
let untouched : int array = [||]

(** Raises [Invalid_argument] unless the set count is a power of two,
    which lets {!access} pick a set with a mask. *)
let create ~(name : string) ~(size_bytes : int) ~(assoc : int)
    ~(line_bytes : int) : t =
  let lines = size_bytes / line_bytes in
  let sets = max 1 (lines / assoc) in
  if sets land (sets - 1) <> 0 then
    invalid_arg
      (Printf.sprintf "Cache.create: %s has %d sets, not a power of two" name
         sets);
  {
    name;
    sets;
    set_mask = sets - 1;
    assoc;
    line_bytes;
    ways = Array.make sets untouched;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

(** [access c addr] touches the line containing byte address [addr];
    returns [true] on hit. On miss the line is installed, evicting LRU. *)
let access (c : t) (addr : int) : bool =
  c.tick <- c.tick + 1;
  c.accesses <- c.accesses + 1;
  let line = addr / c.line_bytes in
  let set = line land c.set_mask in
  let assoc = c.assoc in
  let ways =
    match c.ways.(set) with
    | w when w == untouched ->
        let w = Array.make (2 * assoc) 0 in
        Array.fill w 0 assoc (-1);
        c.ways.(set) <- w;
        w
    | w -> w
  in
  (* A line is installed only on a miss, so at most one way matches. *)
  let w = ref 0 in
  while !w < assoc && ways.(!w) <> line do
    incr w
  done;
  if !w < assoc then begin
    ways.(assoc + !w) <- c.tick;
    true
  end
  else begin
    c.misses <- c.misses + 1;
    (* Evict least-recently-used way. *)
    let victim = ref 0 in
    for w = 1 to assoc - 1 do
      if ways.(assoc + w) < ways.(assoc + !victim) then victim := w
    done;
    ways.(!victim) <- line;
    ways.(assoc + !victim) <- c.tick;
    false
  end

(** Empty every set — tags and LRU stamps alike — and zero the counters. *)
let reset (c : t) : unit =
  Array.fill c.ways 0 c.sets untouched;
  c.tick <- 0;
  c.accesses <- 0;
  c.misses <- 0

let miss_rate (c : t) : float =
  if c.accesses = 0 then 0.0 else float_of_int c.misses /. float_of_int c.accesses
