(** Execution counters — the PAPI substitute.

    One record per program run; the benchmark harness reports [cycles] as the
    "runtime" and the cache-miss counters when explaining results (as the
    paper does for deriche's L2/L3 misses). *)

type t = {
  mutable cycles : float;
  mutable loads : int;
  mutable stores : int;
  mutable bytes_loaded : int;
  mutable bytes_stored : int;
  mutable int_ops : int;
  mutable fp_ops : int;
  mutable math_calls : int;
  mutable branches : int;
  mutable heap_allocs : int;
  mutable heap_frees : int;
  mutable heap_bytes : int;
  mutable stack_allocs : int;
  mutable l1_misses : int;
  mutable l2_misses : int;
  mutable l3_misses : int;
  mutable l1_accesses : int;
}

let create () : t =
  {
    cycles = 0.0;
    loads = 0;
    stores = 0;
    bytes_loaded = 0;
    bytes_stored = 0;
    int_ops = 0;
    fp_ops = 0;
    math_calls = 0;
    branches = 0;
    heap_allocs = 0;
    heap_frees = 0;
    heap_bytes = 0;
    stack_allocs = 0;
    l1_misses = 0;
    l2_misses = 0;
    l3_misses = 0;
    l1_accesses = 0;
  }

let bytes_moved (m : t) : int = m.bytes_loaded + m.bytes_stored

(** Zero every counter, as at [create]. *)
let reset (m : t) : unit =
  m.cycles <- 0.0;
  m.loads <- 0;
  m.stores <- 0;
  m.bytes_loaded <- 0;
  m.bytes_stored <- 0;
  m.int_ops <- 0;
  m.fp_ops <- 0;
  m.math_calls <- 0;
  m.branches <- 0;
  m.heap_allocs <- 0;
  m.heap_frees <- 0;
  m.heap_bytes <- 0;
  m.stack_allocs <- 0;
  m.l1_misses <- 0;
  m.l2_misses <- 0;
  m.l3_misses <- 0;
  m.l1_accesses <- 0

(** [add_into ~into src] accumulates [src] into [into] — merging a parallel
    worker's counters back into the master machine. Addition order is the
    caller's responsibility (floats: [cycles]). *)
let add_into ~(into : t) (src : t) : unit =
  into.cycles <- into.cycles +. src.cycles;
  into.loads <- into.loads + src.loads;
  into.stores <- into.stores + src.stores;
  into.bytes_loaded <- into.bytes_loaded + src.bytes_loaded;
  into.bytes_stored <- into.bytes_stored + src.bytes_stored;
  into.int_ops <- into.int_ops + src.int_ops;
  into.fp_ops <- into.fp_ops + src.fp_ops;
  into.math_calls <- into.math_calls + src.math_calls;
  into.branches <- into.branches + src.branches;
  into.heap_allocs <- into.heap_allocs + src.heap_allocs;
  into.heap_frees <- into.heap_frees + src.heap_frees;
  into.heap_bytes <- into.heap_bytes + src.heap_bytes;
  into.stack_allocs <- into.stack_allocs + src.stack_allocs;
  into.l1_misses <- into.l1_misses + src.l1_misses;
  into.l2_misses <- into.l2_misses + src.l2_misses;
  into.l3_misses <- into.l3_misses + src.l3_misses;
  into.l1_accesses <- into.l1_accesses + src.l1_accesses

(** Bit-exact equality, [cycles] compared by float bits — the identity
    predicate of the serial-vs-parallel and tree-vs-compiled oracles. *)
let equal (a : t) (b : t) : bool =
  Int64.equal (Int64.bits_of_float a.cycles) (Int64.bits_of_float b.cycles)
  && a.loads = b.loads && a.stores = b.stores
  && a.bytes_loaded = b.bytes_loaded
  && a.bytes_stored = b.bytes_stored
  && a.int_ops = b.int_ops && a.fp_ops = b.fp_ops
  && a.math_calls = b.math_calls && a.branches = b.branches
  && a.heap_allocs = b.heap_allocs
  && a.heap_frees = b.heap_frees
  && a.heap_bytes = b.heap_bytes
  && a.stack_allocs = b.stack_allocs
  && a.l1_misses = b.l1_misses && a.l2_misses = b.l2_misses
  && a.l3_misses = b.l3_misses
  && a.l1_accesses = b.l1_accesses

let pp (ppf : Format.formatter) (m : t) : unit =
  Fmt.pf ppf
    "@[<v>cycles       %12.0f@,loads        %12d@,stores       %12d@,\
     bytes moved  %12d@,int ops      %12d@,fp ops       %12d@,\
     math calls   %12d@,branches     %12d@,heap allocs  %12d (%d bytes)@,\
     heap frees   %12d@,L1 miss      %12d / %d@,L2 miss      %12d@,\
     L3 miss      %12d@]"
    m.cycles m.loads m.stores (bytes_moved m) m.int_ops m.fp_ops m.math_calls
    m.branches m.heap_allocs m.heap_bytes m.heap_frees m.l1_misses
    m.l1_accesses m.l2_misses m.l3_misses
