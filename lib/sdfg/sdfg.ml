(** The Stateful Dataflow multiGraph IR (Ben-Nun et al., SC'19), as used by
    the paper.

    An SDFG is a state machine whose nodes (states) hold acyclic dataflow
    graphs. Data containers are declared globally; access nodes inside states
    name them, and edges between nodes carry {e memlets}: symbolic subsets of
    moved data. Interstate edges carry a symbolic condition and symbol
    assignments — loops appear as guard-pattern cycles whose induction
    variable is a symbol.

    One deliberate simplification versus DaCe: a parametric-parallel map is a
    single node holding a nested dataflow graph, instead of matched
    entry/exit nodes in a flat multigraph. External edges of the map node
    carry the aggregated memlets (what the analyses consume); the nested
    graph uses per-iteration subsets over the map parameters. The paper's
    pipeline never emits maps here (auto-parallelization is disabled in the
    evaluation, §7.1); maps are exercised by dedicated tests and examples. *)

open Dcir_symbolic

type dtype = DInt | DFloat

type storage =
  | Heap  (** malloc'd; allocation cost on every (re-)allocation *)
  | Stack  (** cheap allocation *)
  | Register  (** no memory traffic; scalars and tiny promoted buffers *)

type container = {
  cname : string;
  dtype : dtype;
  mutable shape : Expr.t list;  (** [[]] = scalar *)
  mutable transient : bool;  (** lifetime managed by the SDFG *)
  mutable storage : storage;
  mutable alloc_in_loop : bool;
      (** came from an allocation inside a loop: allocation cost recurs on
          every execution of the allocating state until hoisted (§6.3) *)
  mutable alloc_state : string option;
      (** the state whose execution pays the allocation when
          [alloc_in_loop] is set *)
}

let elem_bytes (c : container) : int =
  match c.dtype with DInt -> 8 | DFloat -> 8

let is_scalar (c : container) : bool = c.shape = []

type wcr = WcrSum | WcrProd | WcrMax | WcrMin

let wcr_of_string = function
  | "add" | "sum" -> Some WcrSum
  | "mul" | "prod" -> Some WcrProd
  | "max" -> Some WcrMax
  | "min" -> Some WcrMin
  | _ -> None

let wcr_to_string = function
  | WcrSum -> "add"
  | WcrProd -> "mul"
  | WcrMax -> "max"
  | WcrMin -> "min"

type memlet = {
  data : string;  (** container name *)
  subset : Range.t;
  wcr : wcr option;  (** write-conflict resolution: store becomes update *)
  other : Range.t option;
      (** for Access-to-Access copy edges: the destination subset (the
          source subset is [subset]); [None] everywhere else *)
}

type tasklet_code =
  | Native of Texpr.code
      (** analyzable assignments [out_conn := expr] (raised tasklets) *)
  | Opaque of Dcir_mlir.Ir.func
      (** black-box unit compiled separately (MLIR/C tasklets): executed via
          the MLIR interpreter with link-time overhead, invisible to
          data-centric analysis *)

type tasklet = {
  tname : string;
  t_inputs : string list;  (** input connector names *)
  t_outputs : string list;
  t_syms : string list;
      (** symbols the tasklet reads (read-only, freely accessible §3.2);
          opaque bodies receive them as leading parameters *)
  code : tasklet_code;
  t_overhead : float;
      (** per-invocation cycle cost: 0 for raised/inlined tasklets, positive
          for separately-compiled MLIR tasklets that rely on LTO (§5.2) *)
}

(** How one container is accessed across the iterations of a parallel map —
    the dependence tester's verdict, carried on the map as its
    parallelization certificate. *)
type par_class =
  | ParReadOnly  (** never written in the body *)
  | ParDisjoint
      (** written, but distinct iterations touch provably disjoint subsets;
          the shared buffer is updated in place *)
  | ParReduction of wcr
      (** every access is a WCR update with this operator; workers combine
          into private identity-initialized accumulators, merged in chunk
          order *)
  | ParPrivate
      (** transient written before read each iteration and dead outside the
          loop; each worker gets its own copy *)

type par_cert = { pc_sym : string; pc_classes : (string * par_class) list }
(** Certificate attached by [loop_to_map]: [pc_sym] is the original loop
    induction symbol (= the first map parameter), [pc_classes] classifies
    {e every} container the body accesses. Maps without a certificate keep
    the serial execution semantics; certified maps execute with the chunked
    schedule (identical at any worker count). *)

type node_kind =
  | Access of string  (** of a container *)
  | TaskletN of tasklet
  | MapN of map_node

and map_node = {
  m_params : string list;
  mutable m_ranges : Range.dim list;
  m_body : graph;
  mutable m_par : par_cert option;
}

and node = { nid : int; kind : node_kind }

and edge = {
  e_src : int;
  e_src_conn : string option;  (** tasklet output connector, if any *)
  e_dst : int;
  e_dst_conn : string option;
  mutable e_memlet : memlet option;  (** [None] = pure dependency edge *)
}

and graph = {
  mutable g_nodes : node list;  (** committed, in insertion order *)
  mutable g_nodes_staged : node list;  (** pending appends, newest first *)
  mutable g_edges : edge list;
  mutable g_edges_staged : edge list;
}
(** Node/edge lists use a staged append buffer: [add_node]/[add_edge] cons
    onto the staged list in O(1); readers go through {!nodes}/{!edges},
    which flush staged entries (reversed) onto the committed tail. Building
    an n-node graph is O(n) instead of the former O(n²) [l @ [x]] appends,
    while observable order stays exactly insertion order. *)

type state = { s_label : string; s_graph : graph }

type istate_edge = {
  ie_src : string;
  ie_dst : string;
  mutable ie_cond : Bexpr.t;
  mutable ie_assign : (string * Expr.t) list;
}

type t = {
  name : string;
  containers : (string, container) Hashtbl.t;
  mutable sd_arg_order : string list;
      (** non-transient containers in parameter order (committed) *)
  mutable sd_arg_order_staged : string list;  (** pending, newest first *)
  mutable param_order : string list;
      (** original function parameter names (container names at creation);
          a promoted scalar parameter stays here but moves to
          [arg_symbols] — runners bind positionally through this list *)
  mutable arg_symbols : string list;
      (** free symbols bound by the caller (sizes, promoted scalar params) *)
  mutable sd_states : state list;
  mutable sd_states_staged : state list;
  sd_state_index : (string, state) Hashtbl.t;
      (** label → state for O(1) {!find_state}; on duplicate labels keeps
          the first added (the former [List.find_opt] semantics) *)
  mutable sd_iedges : istate_edge list;
  mutable sd_iedges_staged : istate_edge list;
  mutable start_state : string;
  mutable return_expr : Expr.t option;
      (** symbolic return value, if the function returns through a symbol *)
  mutable return_scalar : string option;
      (** or the scalar container holding the return value *)
  gen : Dcir_support.Id_gen.t;
}

(* ------------------------------------------------------------------ *)
(* Construction *)

let create (name : string) : t =
  {
    name;
    containers = Hashtbl.create 16;
    sd_arg_order = [];
    sd_arg_order_staged = [];
    param_order = [];
    arg_symbols = [];
    sd_states = [];
    sd_states_staged = [];
    sd_state_index = Hashtbl.create 16;
    sd_iedges = [];
    sd_iedges_staged = [];
    start_state = "";
    return_expr = None;
    return_scalar = None;
    gen = Dcir_support.Id_gen.create ();
  }

(* -- staged-list accessors: O(1) appends, reads flush staged entries -- *)

let nodes (g : graph) : node list =
  (match g.g_nodes_staged with
  | [] -> ()
  | staged ->
      g.g_nodes <- g.g_nodes @ List.rev staged;
      g.g_nodes_staged <- []);
  g.g_nodes

let edges (g : graph) : edge list =
  (match g.g_edges_staged with
  | [] -> ()
  | staged ->
      g.g_edges <- g.g_edges @ List.rev staged;
      g.g_edges_staged <- []);
  g.g_edges

let set_nodes (g : graph) (ns : node list) : unit =
  g.g_nodes <- ns;
  g.g_nodes_staged <- []

let set_edges (g : graph) (es : edge list) : unit =
  g.g_edges <- es;
  g.g_edges_staged <- []

let states (sdfg : t) : state list =
  (match sdfg.sd_states_staged with
  | [] -> ()
  | staged ->
      sdfg.sd_states <- sdfg.sd_states @ List.rev staged;
      sdfg.sd_states_staged <- []);
  sdfg.sd_states

let reindex_states (sdfg : t) : unit =
  Hashtbl.reset sdfg.sd_state_index;
  List.iter
    (fun s ->
      if not (Hashtbl.mem sdfg.sd_state_index s.s_label) then
        Hashtbl.replace sdfg.sd_state_index s.s_label s)
    (states sdfg)

let set_states (sdfg : t) (ss : state list) : unit =
  sdfg.sd_states <- ss;
  sdfg.sd_states_staged <- [];
  reindex_states sdfg

let istate_edges (sdfg : t) : istate_edge list =
  (match sdfg.sd_iedges_staged with
  | [] -> ()
  | staged ->
      sdfg.sd_iedges <- sdfg.sd_iedges @ List.rev staged;
      sdfg.sd_iedges_staged <- []);
  sdfg.sd_iedges

let set_istate_edges (sdfg : t) (es : istate_edge list) : unit =
  sdfg.sd_iedges <- es;
  sdfg.sd_iedges_staged <- []

let arg_order (sdfg : t) : string list =
  (match sdfg.sd_arg_order_staged with
  | [] -> ()
  | staged ->
      sdfg.sd_arg_order <- sdfg.sd_arg_order @ List.rev staged;
      sdfg.sd_arg_order_staged <- []);
  sdfg.sd_arg_order

let set_arg_order (sdfg : t) (names : string list) : unit =
  sdfg.sd_arg_order <- names;
  sdfg.sd_arg_order_staged <- []

let add_container (sdfg : t) ?(transient = true) ?(storage = Heap)
    ?(alloc_in_loop = false) ~(dtype : dtype) ~(shape : Expr.t list)
    (cname : string) : container =
  if Hashtbl.mem sdfg.containers cname then
    invalid_arg ("Sdfg.add_container: duplicate " ^ cname);
  let c =
    { cname; dtype; shape; transient; storage; alloc_in_loop; alloc_state = None }
  in
  Hashtbl.replace sdfg.containers cname c;
  if not transient then
    sdfg.sd_arg_order_staged <- cname :: sdfg.sd_arg_order_staged;
  c

let container (sdfg : t) (name : string) : container =
  match Hashtbl.find_opt sdfg.containers name with
  | Some c -> c
  | None -> invalid_arg ("Sdfg.container: unknown " ^ name)

let remove_container (sdfg : t) (name : string) : unit =
  Hashtbl.remove sdfg.containers name;
  set_arg_order sdfg
    (List.filter (fun n -> not (String.equal n name)) (arg_order sdfg))

let fresh_name (sdfg : t) (prefix : string) : string =
  let rec try_ () =
    let n = Dcir_support.Id_gen.fresh sdfg.gen prefix in
    if Hashtbl.mem sdfg.containers n then try_ () else n
  in
  try_ ()

let new_graph () : graph =
  { g_nodes = []; g_nodes_staged = []; g_edges = []; g_edges_staged = [] }

(* Atomic: serve workers build SDFGs concurrently across domains, and a
   torn increment could hand two nodes of one graph the same id. Ids are
   in-memory identity keys only: the printer numbers nodes per SDFG by
   first appearance, so no printed text depends on them. *)
let node_counter = Atomic.make 0

let add_node (g : graph) (kind : node_kind) : node =
  let n = { nid = Atomic.fetch_and_add node_counter 1 + 1; kind } in
  g.g_nodes_staged <- n :: g.g_nodes_staged;
  n

let add_edge (g : graph) ?(src_conn : string option)
    ?(dst_conn : string option) ?(memlet : memlet option) (src : node)
    (dst : node) : edge =
  let e =
    {
      e_src = src.nid;
      e_src_conn = src_conn;
      e_dst = dst.nid;
      e_dst_conn = dst_conn;
      e_memlet = memlet;
    }
  in
  g.g_edges_staged <- e :: g.g_edges_staged;
  e

let add_state (sdfg : t) (label : string) : state =
  let s = { s_label = label; s_graph = new_graph () } in
  sdfg.sd_states_staged <- s :: sdfg.sd_states_staged;
  if not (Hashtbl.mem sdfg.sd_state_index label) then
    Hashtbl.replace sdfg.sd_state_index label s;
  if sdfg.start_state = "" then sdfg.start_state <- label;
  s

let find_state (sdfg : t) (label : string) : state option =
  Hashtbl.find_opt sdfg.sd_state_index label

let add_istate_edge (sdfg : t) ?(cond = Bexpr.true_) ?(assign = []) ~(src : string)
    ~(dst : string) () : unit =
  sdfg.sd_iedges_staged <-
    { ie_src = src; ie_dst = dst; ie_cond = cond; ie_assign = assign }
    :: sdfg.sd_iedges_staged

let out_edges (sdfg : t) (label : string) : istate_edge list =
  List.filter (fun e -> String.equal e.ie_src label) (istate_edges sdfg)

let in_edges (sdfg : t) (label : string) : istate_edge list =
  List.filter (fun e -> String.equal e.ie_dst label) (istate_edges sdfg)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore — the checked-execution primitives of
   {!Dcir_dace_passes.Driver}. Every mutable record (containers, graphs,
   nodes with map bodies, edges, interstate edges) is copied fresh;
   immutable payloads (symbolic expressions, tasklet records, memlets) are
   shared. *)

let rec copy_graph (g : graph) : graph =
  {
    g_nodes =
      List.map
        (fun n ->
          match n.kind with
          | MapN mn ->
              {
                nid = n.nid;
                kind =
                  MapN
                    {
                      m_params = mn.m_params;
                      m_ranges = mn.m_ranges;
                      m_body = copy_graph mn.m_body;
                      m_par = mn.m_par;
                    };
              }
          | Access _ | TaskletN _ -> { nid = n.nid; kind = n.kind })
        (nodes g);
    g_nodes_staged = [];
    g_edges =
      List.map
        (fun e ->
          {
            e_src = e.e_src;
            e_src_conn = e.e_src_conn;
            e_dst = e.e_dst;
            e_dst_conn = e.e_dst_conn;
            e_memlet = e.e_memlet;
          })
        (edges g);
    g_edges_staged = [];
  }

let copy_container (c : container) : container =
  {
    cname = c.cname;
    dtype = c.dtype;
    shape = c.shape;
    transient = c.transient;
    storage = c.storage;
    alloc_in_loop = c.alloc_in_loop;
    alloc_state = c.alloc_state;
  }

(** Deep-copy an SDFG (shares the name and id generator: a restored
    snapshot must keep drawing fresh names). *)
let copy (sdfg : t) : t =
  let containers = Hashtbl.create (Hashtbl.length sdfg.containers) in
  Hashtbl.iter
    (fun k c -> Hashtbl.replace containers k (copy_container c))
    sdfg.containers;
  let c =
    {
      name = sdfg.name;
      containers;
      sd_arg_order = arg_order sdfg;
      sd_arg_order_staged = [];
      param_order = sdfg.param_order;
      arg_symbols = sdfg.arg_symbols;
      sd_states =
        List.map
          (fun s -> { s_label = s.s_label; s_graph = copy_graph s.s_graph })
          (states sdfg);
      sd_states_staged = [];
      sd_state_index = Hashtbl.create 16;
      sd_iedges =
        List.map
          (fun e ->
            {
              ie_src = e.ie_src;
              ie_dst = e.ie_dst;
              ie_cond = e.ie_cond;
              ie_assign = e.ie_assign;
            })
          (istate_edges sdfg);
      sd_iedges_staged = [];
      start_state = sdfg.start_state;
      return_expr = sdfg.return_expr;
      return_scalar = sdfg.return_scalar;
      gen = sdfg.gen;
    }
  in
  reindex_states c;
  c

(** Overwrite [into] with the contents of snapshot [src] — the rollback
    half of checked execution. *)
let restore ~(into : t) (src : t) : unit =
  Hashtbl.reset into.containers;
  Hashtbl.iter (fun k c -> Hashtbl.replace into.containers k c) src.containers;
  set_arg_order into (arg_order src);
  into.param_order <- src.param_order;
  into.arg_symbols <- src.arg_symbols;
  set_states into (states src);
  set_istate_edges into (istate_edges src);
  into.start_state <- src.start_state;
  into.return_expr <- src.return_expr;
  into.return_scalar <- src.return_scalar

(* ------------------------------------------------------------------ *)
(* Graph queries *)

let node_by_id (g : graph) (nid : int) : node =
  match List.find_opt (fun n -> n.nid = nid) (nodes g) with
  | Some n -> n
  | None -> invalid_arg "Sdfg.node_by_id"

let node_in_edges (g : graph) (n : node) : edge list =
  List.filter (fun e -> e.e_dst = n.nid) (edges g)

let node_out_edges (g : graph) (n : node) : edge list =
  List.filter (fun e -> e.e_src = n.nid) (edges g)

(** Topological order of a state's dataflow graph. Raises on cycles (states
    must be acyclic). *)
let topo_order (g : graph) : node list =
  let ids = List.map (fun n -> n.nid) (nodes g) in
  let index_of = Hashtbl.create 16 in
  List.iteri (fun i nid -> Hashtbl.replace index_of nid i) ids;
  let dg =
    Dcir_support.Digraph.create ~n:(List.length ids)
      (List.filter_map
         (fun e ->
           match
             (Hashtbl.find_opt index_of e.e_src, Hashtbl.find_opt index_of e.e_dst)
           with
           | Some a, Some b -> Some (a, b)
           | _ -> None)
         (edges g))
  in
  let order = Dcir_support.Digraph.topo_sort dg in
  let arr = Array.of_list (nodes g) in
  List.map (fun i -> arr.(i)) order

(** Containers read (via load memlets into tasklets/maps/copies) in a
    graph, recursively. *)
let rec read_containers (g : graph) : string list =
  let module S = Set.Make (String) in
  let acc = ref S.empty in
  List.iter
    (fun e ->
      match e.e_memlet with
      | Some m -> (
          (* A memlet going out of an Access node is a read of it. *)
          match (node_by_id g e.e_src).kind with
          | Access _ -> acc := S.add m.data !acc
          | _ -> ())
      | None -> ())
    (edges g);
  List.iter
    (fun n ->
      match n.kind with
      | MapN mn -> List.iter (fun c -> acc := S.add c !acc) (read_containers mn.m_body)
      | _ -> ())
    (nodes g);
  S.elements !acc

(** Containers written in a graph, recursively. *)
let rec written_containers (g : graph) : string list =
  (* For copy edges the memlet names the source; the written container is
     the destination access node's. *)
  let module S = Set.Make (String) in
  let acc = ref S.empty in
  List.iter
    (fun e ->
      match e.e_memlet with
      | Some _ -> (
          match (node_by_id g e.e_dst).kind with
          | Access n -> acc := S.add n !acc
          | _ -> ())
      | None -> ())
    (edges g);
  List.iter
    (fun n ->
      match n.kind with
      | MapN mn ->
          List.iter (fun c -> acc := S.add c !acc) (written_containers mn.m_body)
      | _ -> ())
    (nodes g);
  S.elements !acc

(** Symbols referenced by a graph: memlet subsets, tasklet code, map
    ranges. *)
let rec graph_free_syms (g : graph) : string list =
  let module S = Set.Make (String) in
  let acc = ref S.empty in
  let add l = List.iter (fun s -> acc := S.add s !acc) l in
  List.iter
    (fun e ->
      match e.e_memlet with
      | Some m ->
          add (Range.free_syms m.subset);
          (match m.other with
          | Some o -> add (Range.free_syms o)
          | None -> ())
      | None -> ())
    (edges g);
  List.iter
    (fun n ->
      match n.kind with
      | TaskletN ({ code = Native assigns; _ } as t) ->
          add t.t_syms;
          List.iter (fun (_, e) -> add (Texpr.free_syms e)) assigns
      | TaskletN ({ code = Opaque f; _ } as t) ->
          (* Symbols enter opaque tasklets two ways: declared [t_syms]
             (bound to leading [_sym_*] function parameters) and sdfg.sym
             ops in the body. *)
          add t.t_syms;
          (match f.Dcir_mlir.Ir.fbody with
          | Some r ->
              Dcir_mlir.Ir.walk_region r (fun o ->
                  match Dcir_mlir.Sdfg_d.sym_expr o with
                  | Some e -> add (Expr.free_syms e)
                  | None -> ())
          | None -> ())
      | MapN mn ->
          add (Range.free_syms mn.m_ranges);
          (* Map params shadow outer symbols. *)
          let inner = graph_free_syms mn.m_body in
          add (List.filter (fun s -> not (List.mem s mn.m_params)) inner)
      | Access _ -> ())
    (nodes g);
  S.elements !acc

(** All symbols an SDFG reads anywhere (conditions, assignments, shapes,
    graphs). *)
let free_syms (sdfg : t) : string list =
  let module S = Set.Make (String) in
  let acc = ref S.empty in
  let add l = List.iter (fun s -> acc := S.add s !acc) l in
  List.iter (fun st -> add (graph_free_syms st.s_graph)) (states sdfg);
  List.iter
    (fun e ->
      add (Bexpr.free_syms e.ie_cond);
      List.iter (fun (_, ex) -> add (Expr.free_syms ex)) e.ie_assign)
    (istate_edges sdfg);
  Hashtbl.iter
    (fun _ c -> List.iter (fun d -> add (Expr.free_syms d)) c.shape)
    sdfg.containers;
  (match sdfg.return_expr with Some e -> add (Expr.free_syms e) | None -> ());
  S.elements !acc
