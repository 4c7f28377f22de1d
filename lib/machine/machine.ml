(** The execution substrate: simulated memory + cost charging.

    Both interpreters (MLIR and SDFG) execute real programs on real data
    through this module, so outputs can be verified across pipelines while
    cycle estimates accumulate. Memory is a bump allocator over a virtual
    byte address space; every load/store walks a three-level cache hierarchy
    modeled after the paper's Xeon Gold 6130 (32 KiB L1 / 1 MiB L2 /
    22 MiB shared L3, 64-byte lines). *)

type storage =
  | Heap  (** malloc'd; allocation/free cost charged *)
  | Stack  (** alloca-style; free placement, no allocation call cost *)
  | Register
      (** promoted scalar: no memory traffic at all — the payoff of
          scalar-to-register promotion and DaCe's stack/register heuristic *)

type buffer = {
  id : int;
  base : int;
  elem_bytes : int;
  size : int;
  data : Value.t array;
  storage : storage;
  mutable freed : bool;
}

module Budget = Dcir_resilience.Budget
module Chaos = Dcir_resilience.Chaos

type clock = { mutable cycles : float }
(** The live cycle counter. An all-float record stores its field flat,
    so adding to it allocates nothing; [Metrics.t] mixes float and int
    fields, so writing its [cycles] boxes a float on every charge. *)

type t = {
  cfg : Cost.config;
  op_costs : float array;
      (** [Cost.op_cost cfg] per {!Cost.class_index}, built once *)
  metrics : Metrics.t;
      (** every counter but [cycles], which is live in [clock] and copied
          in by {!metrics} *)
  clock : clock;
  budget : Budget.t;
      (** governs allocations here and interpreter steps upstream *)
  l1 : Cache.t;
  l2 : Cache.t;
  l3 : Cache.t;
  mutable brk : int;
  mutable stack_top : int;
  mutable next_id : int;
  mutable alloc_ordinal : int;  (** chaos fault-site counter, 1-based *)
}

exception Fault of string

let fault fmt = Fmt.kstr (fun s -> raise (Fault s)) fmt

let line_bytes = 64
let page_bytes = 4096

let create ?(cfg = Cost.default) ?(budget = Budget.create ()) () : t =
  let op_costs = Array.make (List.length Cost.all_classes) 0.0 in
  List.iter
    (fun c -> op_costs.(Cost.class_index c) <- Cost.op_cost cfg c)
    Cost.all_classes;
  {
    cfg;
    op_costs;
    metrics = Metrics.create ();
    clock = { cycles = 0.0 };
    budget;
    l1 = Cache.create ~name:"L1" ~size_bytes:(32 * 1024) ~assoc:8 ~line_bytes;
    l2 = Cache.create ~name:"L2" ~size_bytes:(1024 * 1024) ~assoc:16 ~line_bytes;
    l3 =
      Cache.create ~name:"L3" ~size_bytes:(22 * 1024 * 1024) ~assoc:11
        ~line_bytes;
    (* Heap grows up from 1 GiB; stack occupies a disjoint window so heap and
       stack lines never alias. *)
    brk = 0x4000_0000;
    stack_top = 0x1000_0000;
    next_id = 0;
    alloc_ordinal = 0;
  }

(** The machine's counters, with [cycles] brought up to date. This module
    is the only writer of them: a write to the returned record's [cycles]
    is lost at the next call. *)
let metrics (m : t) : Metrics.t =
  m.metrics.cycles <- m.clock.cycles;
  m.metrics

let budget (m : t) : Budget.t = m.budget

(** Zero every counter, as at [create]. *)
let reset_metrics (m : t) : unit =
  m.clock.cycles <- 0.0;
  Metrics.reset m.metrics

(** A fresh machine continuing [m]'s address space: cold caches, zeroed
    metrics, but the same allocation cursors — the substrate of one parallel
    map worker. Allocations it makes land at the same virtual addresses no
    matter which worker (or how many) performs them, which is what keeps
    cache behaviour, and hence every metric, independent of the schedule. *)
let fork (m : t) : t =
  let f = create ~cfg:m.cfg ~budget:(Budget.fork m.budget) () in
  f.brk <- m.brk;
  f.stack_top <- m.stack_top;
  f.next_id <- m.next_id;
  f

(** [merge ~into src] adds [src]'s counters to [into]'s ([into] first,
    for [cycles]) — a parallel map's chunk machine merging back into the
    master, in chunk order. *)
let merge ~(into : t) (src : t) : unit =
  Metrics.add_into ~into:(metrics into) (metrics src);
  into.clock.cycles <- into.metrics.cycles

(* ------------------------------------------------------------------ *)
(* Cost charging *)

let charge (m : t) (cycles : float) : unit =
  m.clock.cycles <- m.clock.cycles +. cycles

let charge_op (m : t) (cls : Cost.op_class) : unit =
  let mt = m.metrics in
  m.clock.cycles <- m.clock.cycles +. m.op_costs.(Cost.class_index cls);
  match cls with
  | Int_alu | Int_mul | Int_div | Move -> mt.int_ops <- mt.int_ops + 1
  | Fp_add | Fp_mul | Fp_div | Fp_sqrt -> mt.fp_ops <- mt.fp_ops + 1
  | Math_call -> mt.math_calls <- mt.math_calls + 1
  | Branch -> mt.branches <- mt.branches + 1

(* One cache-hierarchy probe for the line containing [addr], charging
   the level that hits (no boxed float on the way back). *)
let probe_line (m : t) (addr : int) : unit =
  let mt = m.metrics in
  mt.l1_accesses <- mt.l1_accesses + 1;
  let cost =
    if Cache.access m.l1 addr then m.cfg.l1_hit
    else begin
      mt.l1_misses <- mt.l1_misses + 1;
      if Cache.access m.l2 addr then m.cfg.l2_hit
      else begin
        mt.l2_misses <- mt.l2_misses + 1;
        if Cache.access m.l3 addr then m.cfg.l3_hit
        else begin
          mt.l3_misses <- mt.l3_misses + 1;
          m.cfg.dram
        end
      end
    end
  in
  m.clock.cycles <- m.clock.cycles +. cost

let mem_access (m : t) ~(addr : int) ~(bytes : int) : unit =
  let first = addr / line_bytes and last = (addr + bytes - 1) / line_bytes in
  for line = first to last do
    probe_line m (line * line_bytes)
  done

(* ------------------------------------------------------------------ *)
(* Allocation *)

let round_up v align = (v + align - 1) / align * align

let alloc (m : t) ~(storage : storage) ~(elems : int) ~(elem_bytes : int)
    ~(zero_init : Value.t) : buffer =
  if elems < 0 then fault "negative allocation size (%d elems)" elems;
  m.alloc_ordinal <- m.alloc_ordinal + 1;
  (match Chaos.alloc_failure_at () with
  | Some k when k = m.alloc_ordinal ->
      fault "chaos: injected allocation failure (allocation #%d, %d elems)"
        m.alloc_ordinal elems
  | _ -> ());
  (match storage with
  | Heap | Stack -> Budget.alloc m.budget
  | Register -> ());
  let id = m.next_id in
  m.next_id <- id + 1;
  let bytes = max 1 (elems * elem_bytes) in
  let base =
    match storage with
    | Heap ->
        let b = m.brk in
        m.brk <- round_up (m.brk + bytes) line_bytes;
        let pages = (bytes + page_bytes - 1) / page_bytes in
        charge m (m.cfg.malloc_cost +. (m.cfg.malloc_per_page *. float_of_int pages));
        m.metrics.heap_allocs <- m.metrics.heap_allocs + 1;
        m.metrics.heap_bytes <- m.metrics.heap_bytes + bytes;
        b
    | Stack ->
        let b = m.stack_top in
        m.stack_top <- round_up (m.stack_top + bytes) 16;
        m.metrics.stack_allocs <- m.metrics.stack_allocs + 1;
        b
    | Register -> -1
  in
  { id; base; elem_bytes; size = elems; data = Array.make (max elems 1) zero_init;
    storage; freed = false }

(** [alloc] without its cost: the cycles it charges and the heap
    allocation it counts are taken back (its bytes stay counted). For a
    transient whose allocation cost is charged per execution of its
    allocating state instead, by {!charge_state_alloc}. *)
let alloc_uncharged (m : t) ~(storage : storage) ~(elems : int)
    ~(elem_bytes : int) ~(zero_init : Value.t) : buffer =
  let cycles = m.clock.cycles and heap_allocs = m.metrics.heap_allocs in
  let b = alloc m ~storage ~elems ~elem_bytes ~zero_init in
  m.clock.cycles <- cycles;
  m.metrics.heap_allocs <- heap_allocs;
  b

(** The heap allocation a state makes when execution reaches it: a
    [bytes]-sized malloc, plus its free when the allocation recurs
    ([in_loop]). Counts one heap allocation. *)
let charge_state_alloc (m : t) ~(bytes : int) ~(in_loop : bool) : unit =
  let pages = (bytes + page_bytes - 1) / page_bytes in
  charge m
    (m.cfg.malloc_cost
    +. (m.cfg.malloc_per_page *. float_of_int pages)
    +. if in_loop then m.cfg.free_cost else 0.0);
  m.metrics.heap_allocs <- m.metrics.heap_allocs + 1

let free (m : t) (b : buffer) : unit =
  match b.storage with
  | Heap ->
      if b.freed then fault "double free of buffer %d" b.id;
      b.freed <- true;
      charge m m.cfg.free_cost;
      m.metrics.heap_frees <- m.metrics.heap_frees + 1
  | Stack | Register -> ()

(* ------------------------------------------------------------------ *)
(* Loads and stores *)

let check (b : buffer) (idx : int) (what : string) : unit =
  if b.freed then fault "%s on freed buffer %d" what b.id;
  if idx < 0 || idx >= b.size then
    fault "%s out of bounds: index %d, size %d (buffer %d)" what idx b.size b.id

let load (m : t) (b : buffer) (idx : int) : Value.t =
  check b idx "load";
  (match b.storage with
  | Register -> () (* register reads are free, like SSA values *)
  | Heap | Stack ->
      m.metrics.loads <- m.metrics.loads + 1;
      m.metrics.bytes_loaded <- m.metrics.bytes_loaded + b.elem_bytes;
      mem_access m ~addr:(b.base + (idx * b.elem_bytes)) ~bytes:b.elem_bytes);
  b.data.(idx)

let store (m : t) (b : buffer) (idx : int) (v : Value.t) : unit =
  check b idx "store";
  (match b.storage with
  | Register -> ()
  | Heap | Stack ->
      m.metrics.stores <- m.metrics.stores + 1;
      m.metrics.bytes_stored <- m.metrics.bytes_stored + b.elem_bytes;
      mem_access m ~addr:(b.base + (idx * b.elem_bytes)) ~bytes:b.elem_bytes);
  b.data.(idx) <- v

(** Read without charging — for output verification after a run. *)
let peek (b : buffer) (idx : int) : Value.t =
  if idx < 0 || idx >= b.size then
    fault "peek out of bounds: index %d, size %d" idx b.size;
  b.data.(idx)

(** Write without charging — for input initialization before a run. *)
let poke (b : buffer) (idx : int) (v : Value.t) : unit =
  if idx < 0 || idx >= b.size then
    fault "poke out of bounds: index %d, size %d" idx b.size;
  b.data.(idx) <- v

let snapshot (b : buffer) : Value.t array = Array.copy b.data
