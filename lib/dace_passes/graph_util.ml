(** Shared queries over SDFG graphs used by the data-centric passes. *)

open Dcir_sdfg
open Dcir_symbolic

(** True symbols: bound by the caller or assigned on interstate edges.
    Everything else appearing in expressions is a scalar-container
    pseudo-symbol whose value changes over time — subsets mentioning those
    are not yet analyzable (§5.1's "set equal to the outer region"). *)
let true_symbols (sdfg : Sdfg.t) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace tbl s ()) sdfg.arg_symbols;
  List.iter
    (fun (e : Sdfg.istate_edge) ->
      List.iter (fun (s, _) -> Hashtbl.replace tbl s ()) e.ie_assign)
    (Sdfg.istate_edges sdfg);
  tbl

let subset_analyzable (syms : (string, unit) Hashtbl.t) (r : Range.t) : bool =
  List.for_all (fun s -> Hashtbl.mem syms s) (Range.free_syms r)

(** Every name a graph reads {e symbolically} — in memlet subsets, map
    ranges, native tasklet expressions, or declared tasklet symbol reads
    (recursively through map bodies). Before scalar-to-symbol promotion
    these may be scalar-container pseudo-symbols, which the interpreter
    resolves by loading the container at evaluation time — so a state
    writing such a container must stay strictly ordered before any state
    reading it symbolically. *)
let rec symbol_reads (g : Sdfg.graph) : string list =
  let module S = Set.Make (String) in
  let acc = ref S.empty in
  let add ss = List.iter (fun s -> acc := S.add s !acc) ss in
  let add_range (r : Range.t) = add (Range.free_syms r) in
  let rec texpr (e : Texpr.t) =
    match e with
    | Texpr.TSym s -> acc := S.add s !acc
    | Texpr.TFloat _ | TInt _ | TIn _ -> ()
    | Texpr.TIndex (_, idxs) -> List.iter texpr idxs
    | Texpr.TBin (_, a, b) | TCmp (_, a, b) -> texpr a; texpr b
    | Texpr.TSelect (a, b, c) -> texpr a; texpr b; texpr c
    | Texpr.TUn (_, a) -> texpr a
    | Texpr.TCall (_, args) -> List.iter texpr args
  in
  List.iter
    (fun (e : Sdfg.edge) ->
      match e.e_memlet with
      | Some m ->
          add_range m.subset;
          Option.iter add_range m.other
      | None -> ())
    (Sdfg.edges g);
  List.iter
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.Access _ -> ()
      | Sdfg.TaskletN t -> (
          add t.t_syms;
          match t.code with
          | Sdfg.Native code -> List.iter (fun (_, e) -> texpr e) code
          | Sdfg.Opaque _ -> ())
      | Sdfg.MapN mn ->
          add_range mn.m_ranges;
          add (symbol_reads mn.m_body))
    (Sdfg.nodes g);
  S.elements !acc

(** [g]'s nid -> node lookup, as {!Sdfg.node_by_id} but through a table
    built once per call: resolving every edge endpoint by the linear
    [node_by_id] made each edge loop quadratic in the graph's size. The
    table lives only as long as the caller's loop and is never stored on
    the graph: tree-interpreter map chunks read one body graph from several
    domains, and serve workers share SDFGs. The first node with an id wins,
    as in [node_by_id]. *)
let node_lookup (g : Sdfg.graph) : int -> Sdfg.node =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (n : Sdfg.node) ->
      if not (Hashtbl.mem tbl n.nid) then Hashtbl.replace tbl n.nid n)
    (Sdfg.nodes g);
  fun nid ->
    match Hashtbl.find_opt tbl nid with
    | Some n -> n
    | None -> invalid_arg "Sdfg.node_by_id"

(* A memlet edge into an access node of [name] writes it; one out of such
   a node reads it. *)
let writes_into (node : int -> Sdfg.node) (name : string) (e : Sdfg.edge) :
    bool =
  match ((node e.e_dst).kind, e.e_memlet) with
  | Sdfg.Access n, Some m ->
      String.equal n name && (String.equal m.data name || m.other <> None)
  | _ -> false

let reads_from (node : int -> Sdfg.node) (name : string) (e : Sdfg.edge) :
    bool =
  match ((node e.e_src).kind, e.e_memlet) with
  | Sdfg.Access n, Some m -> String.equal n name && String.equal m.data name
  | _ -> false

(* The edges of [g] and its map bodies satisfying [pred], with the graph
   each lives in. *)
let rec edges_where (pred : (int -> Sdfg.node) -> Sdfg.edge -> bool)
    (g : Sdfg.graph) : (Sdfg.graph * Sdfg.edge) list =
  let node = node_lookup g in
  let here =
    List.filter_map
      (fun e -> if pred node e then Some (g, e) else None)
      (Sdfg.edges g)
  in
  here
  @ List.concat_map
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.MapN mn -> edges_where pred mn.m_body
        | _ -> [])
      (Sdfg.nodes g)

(** Edges writing into access nodes of [name] in graph [g] (recursively,
    maps included), with the graph they live in. *)
let writer_edges (g : Sdfg.graph) (name : string) :
    (Sdfg.graph * Sdfg.edge) list =
  edges_where (fun node -> writes_into node name) g

(** Edges reading from access nodes of [name] (recursively). *)
let reader_edges (g : Sdfg.graph) (name : string) :
    (Sdfg.graph * Sdfg.edge) list =
  edges_where (fun node -> reads_from node name) g

(** Container -> the states holding one of its access nodes (map bodies
    included), in SDFG order. A pass builds it once per sweep over its
    candidate containers, so each container's edge queries visit only its
    own states instead of rescanning the SDFG. Edits during the sweep keep
    it valid as long as it stays a superset of the states holding each
    name: removing access nodes needs nothing, adding one needs
    {!note_access}. States are numbered by their position in the SDFG when
    the index was built. *)
type access_index = {
  ai_states : Sdfg.state array;
  ai_names : (string, int list) Hashtbl.t;  (** ascending positions *)
}

let access_index (sdfg : Sdfg.t) : access_index =
  let states = Array.of_list (Sdfg.states sdfg) in
  let tbl = Hashtbl.create 64 in
  let rec visit (i : int) (g : Sdfg.graph) =
    List.iter
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.Access c -> (
            match Hashtbl.find_opt tbl c with
            | Some (j :: _) when j = i -> ()
            | Some js -> Hashtbl.replace tbl c (i :: js)
            | None -> Hashtbl.replace tbl c [ i ])
        | Sdfg.MapN mn -> visit i mn.m_body
        | Sdfg.TaskletN _ -> ())
      (Sdfg.nodes g)
  in
  Array.iteri (fun i (st : Sdfg.state) -> visit i st.s_graph) states;
  Hashtbl.filter_map_inplace (fun _ js -> Some (List.rev js)) tbl;
  { ai_states = states; ai_names = tbl }

(** Positions of the states holding an access node of [name]. *)
let access_positions (idx : access_index) (name : string) : int list =
  Option.value ~default:[] (Hashtbl.find_opt idx.ai_names name)

let access_states (idx : access_index) (name : string) : Sdfg.state list =
  List.map (Array.get idx.ai_states) (access_positions idx name)

(** Record that [st] now holds an access node of [name]. *)
let note_access (idx : access_index) (name : string) (st : Sdfg.state) : unit =
  let rec position i =
    if i >= Array.length idx.ai_states then
      invalid_arg "Graph_util.note_access: state not in the index"
    else if idx.ai_states.(i) == st then i
    else position (i + 1)
  in
  let i = position 0 and js = access_positions idx name in
  if not (List.mem i js) then
    Hashtbl.replace idx.ai_names name (List.sort compare (i :: js))

let indexed_edges (idx : access_index)
    (pred : (int -> Sdfg.node) -> Sdfg.edge -> bool) (name : string) :
    (Sdfg.state * Sdfg.graph * Sdfg.edge) list =
  List.concat_map
    (fun (st : Sdfg.state) ->
      List.map (fun (g, e) -> (st, g, e)) (edges_where pred st.s_graph))
    (access_states idx name)

(** Every writer edge of [name], in SDFG order, with its state and graph. *)
let all_writer_edges (idx : access_index) (name : string) :
    (Sdfg.state * Sdfg.graph * Sdfg.edge) list =
  indexed_edges idx (fun node -> writes_into node name) name

let all_reader_edges (idx : access_index) (name : string) :
    (Sdfg.state * Sdfg.graph * Sdfg.edge) list =
  indexed_edges idx (fun node -> reads_from node name) name

(** Container names referenced as pseudo-symbols anywhere (subsets, tasklet
    code, conditions, assignments, shapes): these cannot be removed or
    forwarded until promoted. *)
let symbolically_referenced (sdfg : Sdfg.t) : (string, unit) Hashtbl.t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s -> if Hashtbl.mem sdfg.containers s then Hashtbl.replace tbl s ())
    (Sdfg.free_syms sdfg);
  tbl

(** Remove nodes by id and every edge touching them. *)
let remove_nodes (g : Sdfg.graph) (ids : int list) : unit =
  Sdfg.set_nodes g @@ List.filter (fun (n : Sdfg.node) -> not (List.mem n.nid ids)) (Sdfg.nodes g);
  Sdfg.set_edges g @@
    List.filter
      (fun (e : Sdfg.edge) ->
        (not (List.mem e.e_src ids)) && not (List.mem e.e_dst ids))
      (Sdfg.edges g)

(** Drop access nodes with no remaining edges. *)
let prune_isolated_access (g : Sdfg.graph) : unit =
  let touched = Hashtbl.create 16 in
  List.iter
    (fun (e : Sdfg.edge) ->
      Hashtbl.replace touched e.e_src ();
      Hashtbl.replace touched e.e_dst ())
    (Sdfg.edges g);
  Sdfg.set_nodes g @@
    List.filter
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.Access _ -> Hashtbl.mem touched n.nid
        | _ -> true)
      (Sdfg.nodes g)

(** Event nodes touching container [name]: nodes whose execution actually
    moves [name]'s data (tasklets with a memlet on it, access nodes sourcing
    a copy of/into it, maps containing such an event). Used by state fusion
    to sequence conflicting accesses. *)
let rec event_nodes (g : Sdfg.graph) (name : string) :
    (Sdfg.node * [ `Read | `Write ]) list =
  let node = node_lookup g in
  List.concat_map
    (fun (e : Sdfg.edge) ->
      match e.e_memlet with
      | None -> []
      | Some m ->
          let src = node e.e_src and dst = node e.e_dst in
          let acc = ref [] in
          (match (src.kind, dst.kind) with
          | Sdfg.Access a, Sdfg.Access b ->
              (* Copy: event at the source access node. *)
              if String.equal a name then acc := (src, `Read) :: !acc;
              if String.equal b name then acc := (src, `Write) :: !acc;
              ignore m
          | Sdfg.Access a, _ ->
              if String.equal a name && String.equal m.data name then
                acc := (dst, `Read) :: !acc
          | _, Sdfg.Access b ->
              if String.equal b name && String.equal m.data name then
                acc := (src, `Write) :: !acc
          | _ -> ());
          !acc)
    (Sdfg.edges g)
  @ List.concat_map
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.MapN mn ->
            let inner = event_nodes mn.m_body name in
            List.map (fun (_, rw) -> (n, rw)) inner
        | _ -> [])
      (Sdfg.nodes g)

(* Append the dependency edge [a -> b] (no memlet) unless [g] has it. *)
let add_dep_edge (g : Sdfg.graph) (a : int) (b : int) : unit =
  if
    not
      (List.exists
         (fun (e : Sdfg.edge) -> e.e_src = a && e.e_dst = b && e.e_memlet = None)
         (Sdfg.edges g))
  then
    Sdfg.set_edges g @@
      (Sdfg.edges g)
      @ [ { Sdfg.e_src = a; e_src_conn = None; e_dst = b; e_dst_conn = None;
            e_memlet = None } ]

module SS = Set.Make (String)

(** Merge [g2] into [g1], ordered after it: [g1] takes [g2]'s nodes and
    edges, and a dependency edge from each event node of [g1] to each of
    [g2] on every container both graphs touch and one of them writes
    (read-read pairs need no order), so the merged graph stays race-free.
    [reads1]/[writes1] and [reads2]/[writes2] are the containers [g1] and
    [g2] read and write. State fusion and loop fusion merge with this. *)
let merge_sequenced (g1 : Sdfg.graph) (g2 : Sdfg.graph) ~(reads1 : SS.t)
    ~(writes1 : SS.t) ~(reads2 : SS.t) ~(writes2 : SS.t) : unit =
  let common = SS.inter (SS.union reads1 writes1) (SS.union reads2 writes2) in
  let deps =
    SS.fold
      (fun c acc ->
        if (not (SS.mem c writes1)) && not (SS.mem c writes2) then acc
        else
          let ev2 = event_nodes g2 c in
          List.concat_map
            (fun ((n1, rw1) : Sdfg.node * _) ->
              List.filter_map
                (fun ((n2, rw2) : Sdfg.node * _) ->
                  if rw1 = `Read && rw2 = `Read then None
                  else Some (n1.nid, n2.nid))
                ev2)
            (event_nodes g1 c)
          @ acc)
      common []
  in
  Sdfg.set_nodes g1 @@ (Sdfg.nodes g1) @ (Sdfg.nodes g2);
  Sdfg.set_edges g1 @@ (Sdfg.edges g1) @ (Sdfg.edges g2);
  List.iter (fun (a, b) -> if a <> b then add_dep_edge g1 a b) deps

(** Remove every access node of [name] from [g], bridging dependency
    ordering: each predecessor of a removed node gets a dep edge to each of
    its successors. Used after a container is eliminated while ordering
    edges through its access nodes still matter. *)
let remove_access_nodes_of (g : Sdfg.graph) (name : string) : unit =
  let victims =
    List.filter
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.Access c -> String.equal c name
        | _ -> false)
      (Sdfg.nodes g)
  in
  List.iter
    (fun (v : Sdfg.node) ->
      let preds = Sdfg.node_in_edges g v in
      let succs = Sdfg.node_out_edges g v in
      let bridges =
        List.concat_map
          (fun (p : Sdfg.edge) ->
            List.filter_map
              (fun (q : Sdfg.edge) ->
                if p.e_src <> q.e_dst then Some (p.e_src, q.e_dst) else None)
              succs)
          preds
      in
      Sdfg.set_edges g @@
        List.filter
          (fun (e : Sdfg.edge) -> e.e_src <> v.nid && e.e_dst <> v.nid)
          (Sdfg.edges g);
      List.iter (fun (a, b) -> add_dep_edge g a b) bridges;
      Sdfg.set_nodes g @@
        List.filter (fun (n : Sdfg.node) -> n.nid <> v.nid) (Sdfg.nodes g))
    victims
