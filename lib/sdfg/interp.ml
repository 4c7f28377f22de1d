(** SDFG interpreter over the simulated machine.

    Executes the state machine: run a state's dataflow graph in topological
    order, then take the first outgoing interstate edge whose condition
    holds, applying its symbol assignments. Cost conventions deliberately
    mirror {!Dcir_mlir.Interp} so cross-pipeline cycle comparisons are fair:

    - memory traffic goes through the same {!Dcir_machine.Machine};
    - scalar containers default to [Register] storage (DaCe code-generates
      them as C++ locals), costing a [Move] per access — like post-mem2reg
      SSA values on the MLIR side;
    - a conditional state transition costs one [Branch]; unconditional
      transitions are free (fall-through in generated code); an interstate
      assignment costs one [Int_alu];
    - opaque tasklets (MLIR/C units) pay a per-invocation call overhead and
      execute through the MLIR interpreter — the separate-translation-unit
      cost §5.2 describes. *)

open Dcir_symbolic
open Dcir_machine

exception Trap of string

let trap fmt = Fmt.kstr (fun s -> raise (Trap s)) fmt

type runtime = {
  machine : Machine.t;
  sdfg : Sdfg.t;
  buffers : (string, Machine.buffer) Hashtbl.t;
  dims : (string, int array) Hashtbl.t;
  symbols : Symtab.t;
      (** the run's symbols; the bytecode tier indexes it by the ids its
          program interned, the tree walker by name *)
  topo_cache : (int, Sdfg.node list) Hashtbl.t;
      (** keyed by the nid of the first node; per-graph order cache *)
  alloc_charged : (string, unit) Hashtbl.t;
  last_outputs : (string, Value.t) Hashtbl.t;
      (** tree walker: "nid:conn" -> value of the most recent execution,
          for direct tasklet-to-tasklet value edges created by scalar
          elimination (the bytecode tier keeps these in frame slots) *)
  budget : Dcir_resilience.Budget.t;
      (** the machine's budget, cached; every executed graph and state
          transition charges one step against it *)
  profile : Dcir_obs.Obs.Profile.t option;
      (** when set, cycles/loads/stores attribution per state (partitioning
          total execution) and per tasklet (inclusive) *)
  prepared : (int, Dcir_mlir.Interp.prepared) Hashtbl.t;
      (** bytecode tier: per-node prepared MLIR contexts for opaque
          tasklets, so their bodies compile once per run *)
  jobs : int;
      (** worker domains for certified parallel maps; 1 = run the chunked
          schedule on the calling domain (bit-identical either way) *)
}

(* The single budget-charged step helper: every executed graph and state
   transition, in both tiers, charges one step. Exhaustion raises
   [Budget.Exhausted] instead of a trap. *)
let charge_step (rt : runtime) : unit = Dcir_resilience.Budget.step rt.budget

let metric_snap (rt : runtime) : (float * int * int) option =
  match rt.profile with
  | None -> None
  | Some _ ->
      let mt = Machine.metrics rt.machine in
      Some (mt.cycles, mt.loads, mt.stores)

let profile_record (rt : runtime) (snap : (float * int * int) option)
    ~(kind : string) ~(name : string) : unit =
  match (rt.profile, snap) with
  | Some p, Some (c0, l0, s0) ->
      let mt = Machine.metrics rt.machine in
      Dcir_obs.Obs.Profile.record p ~kind ~name ~cycles:(mt.cycles -. c0)
        ~loads:(mt.loads - l0) ~stores:(mt.stores - s0)
  | _ -> ()

(* The fallback for a name that is not a bound symbol, shared by both
   tiers: interstate conditions may read scalar containers directly
   (data-dependent control flow before symbol promotion). *)
let sym_scalar (rt : runtime) (s : string) : int option =
  match Hashtbl.find_opt rt.buffers s with
  | Some b when b.size = 1 ->
      (* A real load: the read must hit the cache model and the loads
         counter, not bypass them via [peek]. *)
      Machine.charge_op rt.machine Move;
      Some (Value.as_int (Machine.load rt.machine b 0))
  | _ -> None

let sym_env (rt : runtime) : string -> int option =
  fun s ->
    match Symtab.find_opt rt.symbols s with
    | Some v -> Some v
    | None -> sym_scalar rt s

(** [sym_env] for compiled code: symbol [s] by its interned [id];
    raises [Expr.Unbound_symbol] like [Expr.eval]. *)
let sym_id (rt : runtime) (id : int) (s : string) : int =
  let t = rt.symbols in
  if Symtab.is_bound t id then Symtab.get t id
  else
    match sym_scalar rt s with
    | Some v -> v
    | None -> raise (Expr.Unbound_symbol s)

let eval_expr (rt : runtime) (e : Expr.t) : int =
  match Expr.eval (sym_env rt) e with
  | v -> v
  | exception Expr.Unbound_symbol s -> trap "unbound symbol '%s'" s

(* Evaluation order is deliberately explicit (lo, hi, step) so the
   bytecode tier can mirror the charge sequence exactly. *)
let eval_range_dim (rt : runtime) (d : Range.dim) : int * int * int =
  let lo = eval_expr rt d.lo in
  let hi = eval_expr rt d.hi in
  let step = eval_expr rt d.step in
  (lo, hi, step)

let storage_of : Sdfg.storage -> Machine.storage = function
  | Sdfg.Heap -> Machine.Heap
  | Sdfg.Stack -> Machine.Stack
  | Sdfg.Register -> Machine.Register

let zero_of (c : Sdfg.container) : Value.t =
  match c.dtype with Sdfg.DInt -> Value.VInt 0 | Sdfg.DFloat -> Value.VFloat 0.0

(* Forward declaration: set below, after lazy allocation is defined. *)
let dims_ref : (runtime -> string -> int array) ref =
  ref (fun _ _ -> assert false)

(* Linearize an index tuple; mirrors Mlir.Interp cost (one Int_alu per extra
   dimension). *)
let linearize (rt : runtime) (name : string) (indices : int list) : int =
  let dims = !dims_ref rt name in
  if List.length indices <> Array.length dims then
    trap "container '%s': %d indices for rank %d" name (List.length indices)
      (Array.length dims);
  let lin = ref 0 in
  List.iteri
    (fun k idx ->
      if k > 0 then Machine.charge_op rt.machine Int_alu;
      lin := (!lin * dims.(k)) + idx)
    indices;
  !lin

(* Transients are allocated lazily at first access: their symbolic sizes may
   reference scalar containers whose values only exist once execution reaches
   the allocation point (e.g. malloc sizes flowing through scalars). *)
let rec buffer_of (rt : runtime) (name : string) : Machine.buffer =
  match Hashtbl.find_opt rt.buffers name with
  | Some b -> b
  | None -> (
      match Hashtbl.find_opt rt.sdfg.containers name with
      | Some c when c.transient ->
          let dims = Array.of_list (List.map (eval_expr rt) c.shape) in
          let elems = Array.fold_left ( * ) 1 dims in
          (* A recurring allocation, or one with an allocating state, is
             charged per execution of that state instead. *)
          let alloc =
            if (not c.alloc_in_loop) && c.alloc_state = None then Machine.alloc
            else Machine.alloc_uncharged
          in
          let b =
            alloc rt.machine ~storage:(storage_of c.storage) ~elems
              ~elem_bytes:(Sdfg.elem_bytes c) ~zero_init:(zero_of c)
          in
          Hashtbl.replace rt.buffers name b;
          Hashtbl.replace rt.dims name dims;
          b
      | Some _ -> trap "argument container '%s' has no buffer" name
      | None -> trap "container '%s' does not exist" name)

and dims_of (rt : runtime) (name : string) : int array =
  ignore (buffer_of rt name);
  match Hashtbl.find_opt rt.dims name with
  | Some d -> d
  | None -> trap "no dims for container '%s'" name

let () = dims_ref := dims_of

let read_element (rt : runtime) (m : Sdfg.memlet) (indices : int list) :
    Value.t =
  (* Linearization (which materializes the buffer and charges index
     arithmetic) precedes the load, in that order. *)
  let lin = linearize rt m.data indices in
  Machine.load rt.machine (buffer_of rt m.data) lin

let apply_wcr (rt : runtime) (w : Sdfg.wcr) (old_v : Value.t) (v : Value.t) :
    Value.t =
  let is_f = Value.is_float old_v || Value.is_float v in
  let charge_cls : Cost.op_class = if is_f then Fp_add else Int_alu in
  Machine.charge_op rt.machine charge_cls;
  match (w, is_f) with
  | Sdfg.WcrSum, true -> Value.VFloat (Value.as_float old_v +. Value.as_float v)
  | Sdfg.WcrSum, false -> Value.VInt (Value.as_int old_v + Value.as_int v)
  | Sdfg.WcrProd, true -> Value.VFloat (Value.as_float old_v *. Value.as_float v)
  | Sdfg.WcrProd, false -> Value.VInt (Value.as_int old_v * Value.as_int v)
  | Sdfg.WcrMax, true -> Value.VFloat (Float.max (Value.as_float old_v) (Value.as_float v))
  | Sdfg.WcrMax, false -> Value.VInt (max (Value.as_int old_v) (Value.as_int v))
  | Sdfg.WcrMin, true -> Value.VFloat (Float.min (Value.as_float old_v) (Value.as_float v))
  | Sdfg.WcrMin, false -> Value.VInt (min (Value.as_int old_v) (Value.as_int v))

let write_element (rt : runtime) (m : Sdfg.memlet) (indices : int list)
    (v : Value.t) : unit =
  let buf = buffer_of rt m.data in
  let lin = linearize rt m.data indices in
  match m.wcr with
  | None -> Machine.store rt.machine buf lin v
  | Some w ->
      let old_v = Machine.load rt.machine buf lin in
      Machine.store rt.machine buf lin (apply_wcr rt w old_v v)

(* Evaluate the concrete index tuple of a single-element subset. *)
let subset_indices (rt : runtime) (s : Range.t) : int list option =
  if List.for_all Range.is_index s then
    Some (List.map (fun (d : Range.dim) -> eval_expr rt d.lo) s)
  else None

(* ------------------------------------------------------------------ *)
(* Tasklet evaluation *)

type conn_value =
  | CScalar of Value.t
  | CArray of string  (** whole-container binding for indirect access *)

(* Charge-and-compute helpers shared by the tree walker and the bytecode
   tier, so both tiers are bit-identical by construction. Operands are
   already evaluated (left-to-right) when these run. *)

let apply_binop (m : Machine.t) (op : Texpr.binop) (va : Value.t)
    (vb : Value.t) : Value.t =
  let is_f = Value.is_float va || Value.is_float vb in
  (match (op, is_f) with
  | (Texpr.BAdd | Texpr.BSub | Texpr.BMin | Texpr.BMax), true ->
      Machine.charge_op m Fp_add
  | Texpr.BMul, true -> Machine.charge_op m Fp_mul
  | Texpr.BDiv, true -> Machine.charge_op m Fp_div
  | (Texpr.BAdd | Texpr.BSub | Texpr.BMin | Texpr.BMax), false ->
      Machine.charge_op m Int_alu
  | Texpr.BMul, false -> Machine.charge_op m Int_mul
  | (Texpr.BDiv | Texpr.BMod), false -> Machine.charge_op m Int_div
  | Texpr.BMod, true -> Machine.charge_op m Fp_div);
  if is_f then
    let x = Value.as_float va and y = Value.as_float vb in
    VFloat
      (match op with
      | Texpr.BAdd -> x +. y
      | Texpr.BSub -> x -. y
      | Texpr.BMul -> x *. y
      | Texpr.BDiv -> x /. y
      | Texpr.BMod -> Float.rem x y
      | Texpr.BMin -> Float.min x y
      | Texpr.BMax -> Float.max x y)
  else
    let x = Value.as_int va and y = Value.as_int vb in
    VInt
      (match op with
      | Texpr.BAdd -> x + y
      | Texpr.BSub -> x - y
      | Texpr.BMul -> x * y
      | Texpr.BDiv ->
          if y = 0 then trap "division by zero in tasklet" else x / y
      | Texpr.BMod ->
          if y = 0 then trap "modulo by zero in tasklet" else x mod y
      | Texpr.BMin -> min x y
      | Texpr.BMax -> max x y)

let apply_cmpop (m : Machine.t) (op : Texpr.cmpop) (va : Value.t)
    (vb : Value.t) : Value.t =
  Machine.charge_op m Int_alu;
  let r =
    if Value.is_float va || Value.is_float vb then
      let x = Value.as_float va and y = Value.as_float vb in
      match op with
      | Texpr.CEq -> x = y
      | Texpr.CNe -> x <> y
      | Texpr.CLt -> x < y
      | Texpr.CLe -> x <= y
      | Texpr.CGt -> x > y
      | Texpr.CGe -> x >= y
    else
      let x = Value.as_int va and y = Value.as_int vb in
      match op with
      | Texpr.CEq -> x = y
      | Texpr.CNe -> x <> y
      | Texpr.CLt -> x < y
      | Texpr.CLe -> x <= y
      | Texpr.CGt -> x > y
      | Texpr.CGe -> x >= y
  in
  Value.of_bool r

(* A tasklet's libm call, charged as the MLIR op it came from. *)
let apply_call (m : Machine.t) (fname : string) (vargs : float list) : Value.t
    =
  match Dcir_mlir.Math_d.of_c_name fname with
  | Some f when List.compare_length_with vargs f.arity = 0 ->
      Machine.charge_op m f.cls;
      VFloat (f.eval vargs)
  | _ -> trap "unknown math call '%s'" fname

let apply_toint (v : Value.t) : Value.t =
  VInt
    (match v with
    | VFloat f -> (
        (* Truncation toward zero; NaN/out-of-range traps instead of the
           silent 0 that [int_of_float] produces (matching the MLIR
           interpreter's arith.fptosi). *)
        try Value.int_of_float_trunc f
        with Invalid_argument msg -> trap "%s" msg)
    | VInt n -> n)

let rec eval_texpr (rt : runtime) (env : (string * conn_value) list)
    (e : Texpr.t) : Value.t =
  let m = rt.machine in
  match e with
  | Texpr.TFloat f -> VFloat f
  | Texpr.TInt n -> VInt n
  | Texpr.TSym s -> (
      match sym_env rt s with
      | Some v -> VInt v
      | None -> trap "tasklet references unbound symbol '%s'" s)
  | Texpr.TIn c -> (
      match List.assoc_opt c env with
      | Some (CScalar v) -> v
      | Some (CArray _) -> trap "connector '%s' is an array, not a scalar" c
      | None -> trap "unbound input connector '%s'" c)
  | Texpr.TIndex (c, idxs) -> (
      match List.assoc_opt c env with
      | Some (CArray data) ->
          let indices =
            List.map (fun i -> Value.as_int (eval_texpr rt env i)) idxs
          in
          let lin = linearize rt data indices in
          Machine.load m (buffer_of rt data) lin
      | Some (CScalar _) -> trap "connector '%s' is scalar; cannot index" c
      | None -> trap "unbound input connector '%s'" c)
  | Texpr.TBin (op, a, b) ->
      let va = eval_texpr rt env a in
      let vb = eval_texpr rt env b in
      apply_binop m op va vb
  | Texpr.TCmp (op, a, b) ->
      let va = eval_texpr rt env a in
      let vb = eval_texpr rt env b in
      apply_cmpop m op va vb
  | Texpr.TSelect (c, a, b) ->
      Machine.charge_op m Int_alu;
      if Value.as_bool (eval_texpr rt env c) then eval_texpr rt env a
      else eval_texpr rt env b
  | Texpr.TUn (`Neg, a) -> (
      match eval_texpr rt env a with
      | VFloat f ->
          Machine.charge_op m Fp_add;
          VFloat (-.f)
      | VInt n ->
          Machine.charge_op m Int_alu;
          VInt (-n))
  | Texpr.TUn (`Not, a) ->
      Machine.charge_op m Int_alu;
      Value.of_bool (not (Value.as_bool (eval_texpr rt env a)))
  | Texpr.TUn (`ToFloat, a) ->
      Machine.charge_op m Move;
      VFloat (Value.as_float (eval_texpr rt env a))
  | Texpr.TUn (`ToInt, a) ->
      Machine.charge_op m Move;
      apply_toint (eval_texpr rt env a)
  | Texpr.TCall (fname, args) ->
      let vargs = List.map (fun a -> Value.as_float (eval_texpr rt env a)) args in
      apply_call m fname vargs

(* ------------------------------------------------------------------ *)
(* Node execution *)

let topo_of (rt : runtime) (g : Sdfg.graph) : Sdfg.node list =
  match (Sdfg.nodes g) with
  | [] -> []
  | first :: _ -> (
      match Hashtbl.find_opt rt.topo_cache first.nid with
      | Some order when List.length order = List.length (Sdfg.nodes g) -> order
      | _ ->
          let order = Sdfg.topo_order g in
          Hashtbl.replace rt.topo_cache first.nid order;
          order)

(* ------------------------------------------------------------------ *)
(* Parallel (certified) map execution.

   A map carrying a [par_cert] executes with a {e chunked schedule}: the
   first dimension splits into a fixed number of chunks that depends only
   on the trip count — never on [rt.jobs] — and each chunk runs on a forked
   machine ({!Machine.fork}: cold caches, zeroed metrics, shared address
   cursors). Shared containers are materialized on the master before the
   fork so disjoint writes land in the common buffers; reduction containers
   are swapped for identity-initialized per-chunk accumulators; private
   transients re-allocate per chunk at identical addresses. Chunk metrics,
   accumulators and the step count merge back in chunk index order, and the
   lowest-index failing chunk's exception is re-raised — so outputs, traps
   and every machine metric are bit-identical at any worker count. *)

let par_chunk_count = 8

(* Flush staged node/edge lists and warm the topo cache for [g] and any
   nested map bodies, so worker domains only ever read the graph. *)
let rec force_topo (rt : runtime) (g : Sdfg.graph) : unit =
  ignore (topo_of rt g);
  ignore (Sdfg.edges g);
  List.iter
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.MapN mn -> force_topo rt mn.m_body
      | Sdfg.Access _ | Sdfg.TaskletN _ -> ())
    (Sdfg.nodes g)

let wcr_identity (dtype : Sdfg.dtype) (w : Sdfg.wcr) : Value.t =
  match (dtype, w) with
  | Sdfg.DFloat, Sdfg.WcrSum -> Value.VFloat 0.0
  | Sdfg.DFloat, Sdfg.WcrProd -> Value.VFloat 1.0
  | Sdfg.DFloat, Sdfg.WcrMax -> Value.VFloat neg_infinity
  | Sdfg.DFloat, Sdfg.WcrMin -> Value.VFloat infinity
  | Sdfg.DInt, Sdfg.WcrSum -> Value.VInt 0
  | Sdfg.DInt, Sdfg.WcrProd -> Value.VInt 1
  | Sdfg.DInt, Sdfg.WcrMax -> Value.VInt min_int
  | Sdfg.DInt, Sdfg.WcrMin -> Value.VInt max_int

(* Uncharged WCR combine — the master-side merge of a chunk accumulator is
   a scheduling artifact, not program work; mirrors [apply_wcr]'s value
   semantics exactly. *)
let combine_wcr (w : Sdfg.wcr) (a : Value.t) (b : Value.t) : Value.t =
  let is_f = Value.is_float a || Value.is_float b in
  match (w, is_f) with
  | Sdfg.WcrSum, true -> Value.VFloat (Value.as_float a +. Value.as_float b)
  | Sdfg.WcrSum, false -> Value.VInt (Value.as_int a + Value.as_int b)
  | Sdfg.WcrProd, true -> Value.VFloat (Value.as_float a *. Value.as_float b)
  | Sdfg.WcrProd, false -> Value.VInt (Value.as_int a * Value.as_int b)
  | Sdfg.WcrMax, true ->
      Value.VFloat (Float.max (Value.as_float a) (Value.as_float b))
  | Sdfg.WcrMax, false -> Value.VInt (max (Value.as_int a) (Value.as_int b))
  | Sdfg.WcrMin, true ->
      Value.VFloat (Float.min (Value.as_float a) (Value.as_float b))
  | Sdfg.WcrMin, false -> Value.VInt (min (Value.as_int a) (Value.as_int b))

let exec_par_chunks (rt : runtime) (cert : Sdfg.par_cert)
    ~(params : string list) ~(dims : (int * int * int) list)
    ~(body : runtime -> unit) : unit =
  let p0, ps, (lo, hi, step), ds =
    match (params, dims) with
    | p0 :: ps, d0 :: ds -> (p0, ps, d0, ds)
    | _ -> trap "map params/ranges mismatch"
  in
  if step <= 0 then trap "parallel map requires a positive step (got %d)" step;
  let n_iters = if hi < lo then 0 else ((hi - lo) / step) + 1 in
  if n_iters > 0 then begin
    (* Materialize shared containers on the master, in certificate order,
       before any fork — lazy-allocation charges must land on the master
       machine exactly once. *)
    List.iter
      (fun (nm, cl) ->
        match cl with
        | Sdfg.ParPrivate -> ()
        | Sdfg.ParReadOnly | Sdfg.ParDisjoint | Sdfg.ParReduction _ ->
            ignore (buffer_of rt nm))
      cert.pc_classes;
    let privates =
      List.filter_map
        (fun (nm, cl) ->
          match cl with Sdfg.ParPrivate -> Some nm | _ -> None)
        cert.pc_classes
    in
    let reductions =
      List.filter_map
        (fun (nm, cl) ->
          match cl with Sdfg.ParReduction w -> Some (nm, w) | _ -> None)
        cert.pc_classes
    in
    let k = min par_chunk_count n_iters in
    let base = n_iters / k and rem = n_iters mod k in
    let chunk_range c =
      let start = (c * base) + min c rem in
      let len = base + if c < rem then 1 else 0 in
      (lo + (start * step), lo + ((start + len - 1) * step))
    in
    (* All chunk runtimes are built upfront on the calling domain, in chunk
       order, from identical fork state. *)
    let mk_chunk () =
      let buffers = Hashtbl.copy rt.buffers in
      let cdims = Hashtbl.copy rt.dims in
      List.iter
        (fun nm ->
          Hashtbl.remove buffers nm;
          Hashtbl.remove cdims nm)
        privates;
      (* The forked machine carries fresh budget counters (same limits),
         preserving the old per-chunk [steps = 0] semantics: a chunk's
         charges are independent of which worker runs it. *)
      let cmachine = Machine.fork rt.machine in
      let crt =
        {
          rt with
          machine = cmachine;
          budget = Machine.budget cmachine;
          buffers;
          dims = cdims;
          symbols = Symtab.copy rt.symbols;
          topo_cache = Hashtbl.copy rt.topo_cache;
          alloc_charged = Hashtbl.copy rt.alloc_charged;
          last_outputs = Hashtbl.copy rt.last_outputs;
          profile = None;
          prepared = Hashtbl.create 8;
          jobs = 1;
        }
      in
      let accus =
        List.map
          (fun (nm, w) ->
            let shared = Hashtbl.find rt.buffers nm in
            let dtype =
              match Hashtbl.find_opt rt.sdfg.containers nm with
              | Some c -> c.dtype
              | None -> Sdfg.DFloat
            in
            let identity = wcr_identity dtype w in
            let accu =
              Machine.alloc crt.machine ~storage:shared.storage
                ~elems:shared.size ~elem_bytes:shared.elem_bytes
                ~zero_init:identity
            in
            Hashtbl.replace crt.buffers nm accu;
            (nm, w, identity, accu))
          reductions
      in
      (crt, accus)
    in
    let chunks = Array.init k (fun _ -> mk_chunk ()) in
    let failures : exn option array = Array.make k None in
    (* Per-chunk timing for `--trace`: workers write only into their own
       slots of these plain arrays (the shared Obs collector is not
       touched off the master domain); the master registers the spans
       after the join, with one trace lane (tid) per worker domain. *)
    let obs_on = Dcir_obs.Obs.enabled () in
    let chunk_t0 = Array.make k 0.0 in
    let chunk_t1 = Array.make k 0.0 in
    let chunk_lane = Array.make k 0 in
    let run_chunk ?(worker = 0) c =
      let crt, _ = chunks.(c) in
      let clo, chi = chunk_range c in
      if obs_on then begin
        chunk_lane.(c) <- worker;
        chunk_t0.(c) <- Unix.gettimeofday ()
      end;
      (* The loop nest below replicates the serial map walker's charge
         sequence per iteration, on the chunk's machine. *)
      let rec iter prms dims =
        match (prms, dims) with
        | [], [] -> body crt
        | p :: prest, (l, h, st) :: drest ->
            let i = ref l in
            while !i <= h do
              Machine.charge_op crt.machine Int_alu;
              Machine.charge_op crt.machine Branch;
              Symtab.set_id crt.symbols p !i;
              iter prest drest;
              i := !i + st
            done
        | _ -> trap "map params/ranges mismatch"
      in
      let ids = List.map (Symtab.intern crt.symbols) (p0 :: ps) in
      (match iter ids ((clo, chi, step) :: ds) with
      | () -> ()
      | exception e -> failures.(c) <- Some e);
      if obs_on then chunk_t1.(c) <- Unix.gettimeofday ()
    in
    (* An accumulator element still holding the identity is left out of the
       merge. Combining it would change at most the sign of a zero, and
       under an enclosing parallel map the shared element may belong to a
       sibling chunk that is writing it concurrently: a read-combine-write
       here could lose that chunk's update. *)
    let merge c =
      let crt, accus = chunks.(c) in
      List.iter
        (fun (nm, w, identity, (accu : Machine.buffer)) ->
          let shared = Hashtbl.find rt.buffers nm in
          for x = 0 to shared.size - 1 do
            let v = Machine.peek accu x in
            if not (Value.equal v identity) then
              Machine.poke shared x (combine_wcr w (Machine.peek shared x) v)
          done)
        accus;
      Machine.merge ~into:rt.machine crt.machine;
      Dcir_resilience.Budget.merge_steps ~into:rt.budget crt.budget
    in
    let settle c =
      match failures.(c) with None -> merge c | Some e -> raise e
    in
    let parallel = rt.jobs > 1 && k > 1 in
    (* Spans are registered before [settle] so a failing chunk still
       leaves its lane in the trace. Serial execution stays on lane 1
       (the master); workers get lanes 2..nd+1. *)
    let record_chunk_spans () =
      if obs_on then
        for c = 0 to k - 1 do
          let clo, chi = chunk_range c in
          Dcir_obs.Obs.add_complete ~cat:"par-map"
            ~tid:(if parallel then chunk_lane.(c) + 2 else 1)
            ~args:
              [
                ("chunk", Dcir_obs.Json.Int c);
                ("lo", Dcir_obs.Json.Int clo);
                ("hi", Dcir_obs.Json.Int chi);
              ]
            ~start_s:chunk_t0.(c) ~end_s:chunk_t1.(c)
            (Printf.sprintf "map-chunk %d" c)
        done
    in
    if not parallel then begin
      for c = 0 to k - 1 do
        run_chunk c
      done;
      record_chunk_spans ();
      for c = 0 to k - 1 do
        settle c
      done
    end
    else begin
      let nd = min rt.jobs k in
      let doms =
        Array.init nd (fun d ->
            Domain.spawn (fun () ->
                let c = ref d in
                while !c < k do
                  run_chunk ~worker:d !c;
                  c := !c + nd
                done))
      in
      Array.iter Domain.join doms;
      record_chunk_spans ();
      for c = 0 to k - 1 do
        settle c
      done
    end
  end

let rec exec_graph (rt : runtime) (g : Sdfg.graph) : unit =
  charge_step rt;
  List.iter
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.Access _ -> exec_access_copies rt g n
      | Sdfg.TaskletN t -> exec_tasklet rt g n t
      | Sdfg.MapN mn -> exec_map rt mn)
    (topo_of rt g)

(* Copies: Access -> Access edges with a memlet move subset-many elements. *)
and exec_access_copies (rt : runtime) (g : Sdfg.graph) (n : Sdfg.node) : unit =
  List.iter
    (fun (e : Sdfg.edge) ->
      match ((Sdfg.node_by_id g e.e_dst).kind, e.e_memlet) with
      | Sdfg.Access dst_name, Some m ->
          let src_buf = buffer_of rt m.data in
          let dst_buf = buffer_of rt dst_name in
          let dst_subset =
            match m.other with
            | Some o -> o
            | None -> m.subset (* same-region copy *)
          in
          let write_one dst_indices v =
            let lin = linearize rt dst_name dst_indices in
            match m.wcr with
            | None -> Machine.store rt.machine dst_buf lin v
            | Some w ->
                let old_v = Machine.load rt.machine dst_buf lin in
                Machine.store rt.machine dst_buf lin (apply_wcr rt w old_v v)
          in
          let src_dims = List.map (eval_range_dim rt) m.subset in
          let dst_dims = List.map (eval_range_dim rt) dst_subset in
          let single ds = List.for_all (fun (lo, hi, _) -> lo = hi) ds in
          if single src_dims && single dst_dims then begin
            (* Element or scalar copy — the common converter-generated case;
               subset ranks may differ (array element <-> scalar). *)
            let src_idx = List.map (fun (lo, _, _) -> lo) src_dims in
            let dst_idx = List.map (fun (lo, _, _) -> lo) dst_dims in
            let v =
              Machine.load rt.machine src_buf (linearize rt m.data src_idx)
            in
            write_one dst_idx v
          end
          else begin
            (* Region copy: iterate the source subset row-major and map
               offsets into the destination subset. *)
            if List.length src_dims <> List.length dst_dims then
              trap "copy %s -> %s: subset rank mismatch" m.data dst_name;
            let rec iter src_prefix dst_prefix = function
              | [] ->
                  let v =
                    Machine.load rt.machine src_buf
                      (linearize rt m.data (List.rev src_prefix))
                  in
                  write_one (List.rev dst_prefix) v
              | ((lo, hi, step), (dlo, _, dstep)) :: rest ->
                  let i = ref lo and k = ref 0 in
                  while !i <= hi do
                    iter (!i :: src_prefix) ((dlo + (!k * dstep)) :: dst_prefix) rest;
                    i := !i + step;
                    incr k
                  done
            in
            iter [] [] (List.combine src_dims dst_dims)
          end
      | _ -> ())
    (Sdfg.node_out_edges g n)

and exec_tasklet (rt : runtime) (g : Sdfg.graph) (n : Sdfg.node)
    (t : Sdfg.tasklet) : unit =
  match rt.profile with
  | None -> exec_tasklet_body rt g n t
  | Some _ ->
      let snap = metric_snap rt in
      exec_tasklet_body rt g n t;
      profile_record rt snap ~kind:"tasklet" ~name:t.tname

(* A connector is array-valued when the code indexes into it (native) or
   the corresponding parameter is a memref (opaque). Static per tasklet —
   the bytecode lowering resolves it once. *)
and tasklet_array_conns (t : Sdfg.tasklet) : string list =
  match t.code with
  | Sdfg.Native assigns ->
      let rec collect acc (e : Texpr.t) =
        match e with
        | Texpr.TIndex (c, idxs) -> List.fold_left collect (c :: acc) idxs
        | Texpr.TBin (_, a, b) | Texpr.TCmp (_, a, b) ->
            collect (collect acc a) b
        | Texpr.TSelect (a, b, c) -> collect (collect (collect acc a) b) c
        | Texpr.TUn (_, a) -> collect acc a
        | Texpr.TCall (_, args) -> List.fold_left collect acc args
        | Texpr.TFloat _ | Texpr.TInt _ | Texpr.TIn _ | Texpr.TSym _ -> acc
      in
      List.fold_left (fun acc (_, e) -> collect acc e) [] assigns
  | Sdfg.Opaque f ->
      (* fparams = symbol args first, then input connectors. *)
      let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: r -> drop (n - 1) r in
      let conn_params = drop (List.length t.t_syms) f.Dcir_mlir.Ir.fparams in
      List.filter_map
        (fun (conn, (p : Dcir_mlir.Ir.value)) ->
          match p.vty with
          | Dcir_mlir.Types.MemRef _ -> Some conn
          | _ -> None)
        (try List.combine t.t_inputs conn_params with Invalid_argument _ -> [])

and exec_tasklet_body (rt : runtime) (g : Sdfg.graph) (n : Sdfg.node)
    (t : Sdfg.tasklet) : unit =
  let array_conns = tasklet_array_conns t in
  let env =
    List.filter_map
      (fun (e : Sdfg.edge) ->
        match (e.e_dst_conn, e.e_memlet) with
        | Some conn, Some m ->
            if List.mem conn array_conns then Some (conn, CArray m.data)
            else (
              match subset_indices rt m.subset with
              | Some idxs -> Some (conn, CScalar (read_element rt m idxs))
              | None ->
                  trap "tasklet '%s': scalar connector '%s' with non-index \
                        subset %s"
                    t.tname conn (Range.to_string m.subset))
        | Some conn, None -> (
            (* Direct value edge from another tasklet's output. *)
            match e.e_src_conn with
            | Some src_conn -> (
                let key = Printf.sprintf "%d:%s" e.e_src src_conn in
                match Hashtbl.find_opt rt.last_outputs key with
                | Some v -> Some (conn, CScalar v)
                | None ->
                    trap "tasklet '%s': value edge source %s not yet executed"
                      t.tname key)
            | None -> None)
        | _ -> None)
      (Sdfg.node_in_edges g n)
  in
  match t.code with
  | Sdfg.Native assigns ->
      let outs =
        List.map (fun (out, expr) -> (out, eval_texpr rt env expr)) assigns
      in
      write_outputs rt g n outs
  | Sdfg.Opaque f ->
      (* Run via the MLIR interpreter on the same machine; separately
         compiled units additionally pay their per-invocation overhead. *)
      Machine.charge rt.machine t.t_overhead;
      let modul = Dcir_mlir.Ir.new_module () in
      modul.funcs <- [ f ];
      let sym_args =
        List.map
          (fun s ->
            match sym_env rt s with
            | Some v -> Dcir_mlir.Interp.Scalar (Value.VInt v)
            | None -> trap "opaque tasklet '%s': unbound symbol '%s'" t.tname s)
          t.t_syms
      in
      let args =
        List.map
          (fun (conn : string) ->
            match List.assoc_opt conn env with
            | Some (CScalar v) -> Dcir_mlir.Interp.Scalar v
            | Some (CArray data) ->
                Dcir_mlir.Interp.Buf
                  { buf = buffer_of rt data; dims = dims_of rt data }
            | None -> trap "opaque tasklet '%s': unbound connector '%s'" t.tname conn)
          t.t_inputs
      in
      let results, _ =
        Dcir_mlir.Interp.run ~machine:rt.machine ?profile:rt.profile
          ~mode:Dcir_mlir.Interp.Tree modul ~entry:f.Dcir_mlir.Ir.fname
          (sym_args @ args)
      in
      let outs = List.map2 (fun c v -> (c, v)) t.t_outputs results in
      write_outputs rt g n outs

and write_outputs (rt : runtime) (g : Sdfg.graph) (n : Sdfg.node)
    (outs : (string * Value.t) list) : unit =
  List.iter
    (fun (conn, v) ->
      Hashtbl.replace rt.last_outputs (Printf.sprintf "%d:%s" n.nid conn) v)
    outs;
  List.iter
    (fun (e : Sdfg.edge) ->
      match (e.e_src_conn, e.e_memlet) with
      | Some conn, Some m -> (
          match List.assoc_opt conn outs with
          | Some v -> (
              match subset_indices rt m.subset with
              | Some idxs -> write_element rt m idxs v
              | None -> trap "write memlet must be a single element (%s)" m.data)
          | None -> trap "no value computed for output connector '%s'" conn)
      | _ -> ())
    (Sdfg.node_out_edges g n)

and exec_map (rt : runtime) (mn : Sdfg.map_node) : unit =
  match mn.m_par with
  | Some cert when mn.m_params <> [] ->
      let dims = List.map (eval_range_dim rt) mn.m_ranges in
      force_topo rt mn.m_body;
      exec_par_chunks rt cert ~params:mn.m_params ~dims
        ~body:(fun crt -> exec_graph crt mn.m_body)
  | Some _ | None -> exec_map_serial rt mn

and exec_map_serial (rt : runtime) (mn : Sdfg.map_node) : unit =
  let dims = List.map (eval_range_dim rt) mn.m_ranges in
  let saved =
    List.map (fun p -> (p, Symtab.find_opt rt.symbols p)) mn.m_params
  in
  let rec iter params dims =
    match (params, dims) with
    | [], [] -> exec_graph rt mn.m_body
    | p :: ps, (lo, hi, step) :: ds ->
        let i = ref lo in
        while !i <= hi do
          Machine.charge_op rt.machine Int_alu;
          Machine.charge_op rt.machine Branch;
          Symtab.set rt.symbols p !i;
          iter ps ds;
          i := !i + step
        done
    | _ -> trap "map params/ranges mismatch"
  in
  iter mn.m_params dims;
  List.iter
    (fun (p, old) ->
      match old with
      | Some v -> Symtab.set rt.symbols p v
      | None -> Symtab.remove rt.symbols p)
    saved

(* ------------------------------------------------------------------ *)
(* State machine execution *)

let exec_state (rt : runtime) (s : Sdfg.state) : unit =
  (* Allocation cost is charged when execution reaches the container's
     allocation state: once for top-level allocations, on every execution
     while [alloc_in_loop] holds (until the §6.3 hoisting pass clears it). *)
  Hashtbl.iter
    (fun _ (c : Sdfg.container) ->
      if
        c.alloc_state = Some s.s_label
        && c.storage = Sdfg.Heap
        && (c.alloc_in_loop || not (Hashtbl.mem rt.alloc_charged c.cname))
      then begin
        Hashtbl.replace rt.alloc_charged c.cname ();
        let bytes =
          List.fold_left (fun acc d -> acc * max 1 (eval_expr rt d)) 1 c.shape
          * Sdfg.elem_bytes c
        in
        Machine.charge_state_alloc rt.machine ~bytes ~in_loop:c.alloc_in_loop
      end)
    rt.sdfg.containers;
  exec_graph rt s.s_graph

(* Tree-mode state machine walk. *)
let run_tree (rt : runtime) : unit =
  let machine = rt.machine in
  let sdfg = rt.sdfg in
  let cur = ref (Sdfg.find_state sdfg sdfg.start_state) in
  while !cur <> None do
    (* each interstate transition is one budget step — the hang guard *)
    charge_step rt;
    let s = Option.get !cur in
    let snap = metric_snap rt in
    exec_state rt s;
    let outs = Sdfg.out_edges sdfg s.s_label in
    if List.length outs > 1 then Machine.charge_op machine Branch;
    let taken =
      List.find_opt
        (fun (e : Sdfg.istate_edge) ->
          match Bexpr.eval (sym_env rt) e.ie_cond with
          | v -> v
          | exception Expr.Unbound_symbol sym ->
              trap "condition on edge %s->%s reads unbound symbol '%s'"
                e.ie_src e.ie_dst sym)
        outs
    in
    let next =
      match taken with
      | None -> None
      | Some e ->
          (* Evaluate all RHS with pre-assignment values, then commit. *)
          let values =
            List.map (fun (sym, ex) ->
                Machine.charge_op machine Int_alu;
                (sym, eval_expr rt ex))
              e.ie_assign
          in
          List.iter (fun (sym, v) -> Symtab.set rt.symbols sym v) values;
          Sdfg.find_state sdfg e.ie_dst
    in
    profile_record rt snap ~kind:"state" ~name:s.s_label;
    cur := next
  done

(* ------------------------------------------------------------------ *)

type result = {
  return_value : Value.t option;
  machine : Machine.t;
}

(** [run sdfg ~machine ~buffers ~symbols] executes the SDFG. [buffers] must
    provide every non-transient container; [symbols] binds [arg_symbols]
    (sizes and promoted scalar parameters). [profile] attributes
    cycles/loads/stores per state — including the state's outgoing
    transition costs, so the per-state entries partition the run's total —
    and per tasklet (inclusive); only the tree walker fills it. [exec]
    walks the state machine over the prepared runtime; it defaults to the
    tree walker, and the bytecode tier passes its VM, which charges the
    machine identically, and the symbol names its program interned
    ([names]: name [i] gets id [i]). *)
let run ?(machine : Machine.t option)
    ?(profile : Dcir_obs.Obs.Profile.t option) ?(jobs : int = 1)
    ?(exec : runtime -> unit = run_tree) ?(names : string array option)
    (sdfg : Sdfg.t)
    ~(buffers : (string * Machine.buffer * int array) list)
    ~(symbols : (string * int) list) () : result =
  let machine = match machine with Some m -> m | None -> Machine.create () in
  let rt =
    {
      machine;
      sdfg;
      buffers = Hashtbl.create 32;
      dims = Hashtbl.create 32;
      symbols = Symtab.create ?names ();
      topo_cache = Hashtbl.create 32;
      alloc_charged = Hashtbl.create 16;
      last_outputs = Hashtbl.create 32;
      budget = Machine.budget machine;
      profile;
      prepared = Hashtbl.create 8;
      jobs = max 1 jobs;
    }
  in
  List.iter (fun (s, v) -> Symtab.set rt.symbols s v) symbols;
  List.iter
    (fun (name, buf, dims) ->
      Hashtbl.replace rt.buffers name buf;
      Hashtbl.replace rt.dims name dims)
    buffers;
  (* Argument buffers must all be present; transients allocate lazily at
     first access (see [buffer_of]). *)
  Hashtbl.iter
    (fun name (c : Sdfg.container) ->
      if (not c.transient) && not (Hashtbl.mem rt.buffers name) then
        trap "missing buffer for argument '%s'" name)
    sdfg.containers;
  exec rt;
  let return_value =
    match (sdfg.return_scalar, sdfg.return_expr) with
    | Some name, _ -> Some (Machine.peek (buffer_of rt name) 0)
    | None, Some e -> Some (Value.VInt (eval_expr rt e))
    | None, None -> None
  in
  { return_value; machine }
