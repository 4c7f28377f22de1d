(** Redundant scalar elimination (part of the paper's Array Elimination,
    §6.2): recovers direct dataflow from the converter's
    one-scalar-per-SSA-value output.

    Within a fused state, a transient scalar that is written exactly once
    and only read within the same state disappears:

    - written by a tasklet output → readers get {e direct value edges} from
      that output connector (pure SSA dataflow, no memory traffic);
    - written by a copy from another container's element → readers read that
      element directly (the copy's memlet moves to the reader).

    Scalars referenced as pseudo-symbols anywhere (unpromoted indices) are
    left untouched; scalar-to-symbol owns those. *)

open Dcir_sdfg

(* Ordering dependencies anchored on the scalar's access nodes must survive
   its removal: re-anchor every pure-dependency edge incident to an access
   node of [name] onto [targets] — the event nodes that now perform the
   forwarded movements (one per reader, so a dep ordering one reader does
   not constrain the others: anchoring them all on a single shared node can
   close a cycle through that node's other edges). A dep into a victim
   fans out to deps into every target; a dep out of a victim fans out from
   every target, preserving transitive ordering through the removed node. *)
let reanchor_deps (g : Sdfg.graph) (name : string) (targets : int list) : unit
    =
  let node = Graph_util.node_lookup g in
  let victim (nid : int) =
    match (node nid).kind with
    | Sdfg.Access c -> String.equal c name
    | _ -> false
  in
  (* A pure dep edge carries neither a memlet nor connectors — a memlet-less
     edge WITH connectors is an SSA value edge and must not be touched. *)
  let is_dep (e : Sdfg.edge) =
    e.e_memlet = None && e.e_src_conn = None && e.e_dst_conn = None
  in
  Sdfg.set_edges g @@
    List.concat_map
      (fun (e : Sdfg.edge) ->
        if not (is_dep e) then [ e ]
        else
          let src_v = victim e.e_src and dst_v = victim e.e_dst in
          if not (src_v || dst_v) then [ e ]
          else if src_v && dst_v then []
          else if dst_v then
            List.filter_map
              (fun t -> if t = e.e_src then None else Some { e with e_dst = t })
              targets
          else
            List.filter_map
              (fun t -> if t = e.e_dst then None else Some { e with e_src = t })
              targets)
      (Sdfg.edges g);
  (* Fan-out can duplicate dep edges; keep one of each. *)
  let seen = Hashtbl.create 16 in
  Sdfg.set_edges g @@
    List.filter
      (fun (e : Sdfg.edge) ->
        if not (is_dep e) then true
        else if Hashtbl.mem seen (e.e_src, e.e_dst) then false
        else begin
          Hashtbl.replace seen (e.e_src, e.e_dst) ();
          true
        end)
      (Sdfg.edges g)

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    let referenced = Graph_util.symbolically_referenced sdfg in
    let scalars =
      Hashtbl.fold
        (fun name (c : Sdfg.container) acc ->
          if
            c.transient && Sdfg.is_scalar c
            && not (Hashtbl.mem referenced name)
            && sdfg.return_scalar <> Some name
          then name :: acc
          else acc)
        sdfg.containers []
      |> List.sort compare
    in
    let index = Graph_util.access_index sdfg in
    List.iter
      (fun name ->
        match
          (Graph_util.all_writer_edges index name,
           Graph_util.all_reader_edges index name)
        with
        | [ (wst, wg, we) ], readers
          when List.for_all
                 (fun ((rst, rg, _) : Sdfg.state * Sdfg.graph * Sdfg.edge) ->
                   rst == wst && rg == wg)
                 readers -> (
            let g = wg in
            (* The rewrite below is list-functional on [(Sdfg.nodes g)]/[(Sdfg.edges g)]
               (records are replaced, never mutated in place), so these two
               references are a full snapshot: forwarding that would close
               an ordering cycle is rolled back and the scalar kept. *)
            let nodes0 = (Sdfg.nodes g) and edges0 = (Sdfg.edges g) in
            let commit_if_acyclic () : bool =
              match Sdfg.topo_order g with
              | _ -> true
              | exception Invalid_argument _ ->
                  Sdfg.set_nodes g @@ nodes0;
                  Sdfg.set_edges g @@ edges0;
                  false
            in
            let src = Sdfg.node_by_id g we.e_src in
            match (src.kind, we.e_src_conn, we.e_memlet) with
            | Sdfg.TaskletN _, Some out_conn, Some m when m.wcr = None ->
                (* Tasklet-defined: value edges to every reader. The event
                   node of each forwarded movement: the writer tasklet for a
                   direct write into an access node, the consuming node for
                   a value edge. *)
                let events = ref [] in
                List.iter
                  (fun ((_, _, re) : Sdfg.state * Sdfg.graph * Sdfg.edge) ->
                    Sdfg.set_edges g @@
                      List.map
                        (fun (x : Sdfg.edge) ->
                          if x == re then
                            match (Sdfg.node_by_id g x.e_dst).kind with
                            | Sdfg.Access dst_name ->
                                (* Old copy scalar->dst becomes a direct
                                   tasklet write into dst. *)
                                let dst_subset =
                                  match x.e_memlet with
                                  | Some { other = Some o; _ } -> o
                                  | _ -> []
                                in
                                events := src.nid :: !events;
                                {
                                  x with
                                  e_src = src.nid;
                                  e_src_conn = Some out_conn;
                                  e_memlet =
                                    Some
                                      {
                                        Sdfg.data = dst_name;
                                        subset = dst_subset;
                                        wcr =
                                          (match x.e_memlet with
                                          | Some xm -> xm.wcr
                                          | None -> None);
                                        other = None;
                                      };
                                }
                            | _ ->
                                events := x.e_dst :: !events;
                                {
                                  x with
                                  e_src = src.nid;
                                  e_src_conn = Some out_conn;
                                  e_memlet = None;
                                }
                          else x)
                        (Sdfg.edges g))
                  readers;
                Sdfg.set_edges g @@ List.filter (fun (x : Sdfg.edge) -> x != we) (Sdfg.edges g);
                reanchor_deps g name
                  (if !events = [] then [ src.nid ] else !events);
                Graph_util.remove_access_nodes_of g name;
                Graph_util.prune_isolated_access g;
                if commit_if_acyclic () then begin
                  Sdfg.remove_container sdfg name;
                  changed := true;
                  progress := true
                end
            | Sdfg.Access _, None, Some m
              when m.wcr = None
                   && (not (String.equal m.data name))
                   (* forward loads only when the source container is not
                      written in this state: the reader would otherwise
                      observe a later value than the original copy did *)
                   && not (List.mem m.data (Sdfg.written_containers g)) ->
                let forward_subset = m.subset in
                let src_access = we.e_src in
                let events = ref [] in
                List.iter
                  (fun ((_, _, re) : Sdfg.state * Sdfg.graph * Sdfg.edge) ->
                    (* A copy-reader's movement event is its (new) source
                       access node. Give each one a private source node: the
                       shared one also feeds the other readers, so ordering
                       deps re-anchored onto it could close a cycle (e.g.
                       two sequenced writes of the same element, the first
                       computed from this scalar). *)
                    let new_src, event =
                      match (Sdfg.node_by_id g re.e_dst).kind with
                      | Sdfg.Access _ ->
                          let n = Sdfg.add_node g (Sdfg.Access m.data) in
                          Graph_util.note_access index m.data wst;
                          (n.nid, n.nid)
                      | _ -> (src_access, re.e_dst)
                    in
                    events := event :: !events;
                    Sdfg.set_edges g @@
                      List.map
                        (fun (x : Sdfg.edge) ->
                          if x == re then
                            {
                              x with
                              e_src = new_src;
                              e_memlet =
                                Some
                                  {
                                    Sdfg.data = m.data;
                                    subset = forward_subset;
                                    wcr =
                                      (match x.e_memlet with
                                      | Some xm -> xm.wcr
                                      | None -> None);
                                    other =
                                      (match
                                         ( (Sdfg.node_by_id g x.e_dst).kind,
                                           x.e_memlet )
                                       with
                                      | Sdfg.Access _, Some xm ->
                                          (* reader was itself a copy out of
                                             the scalar: preserve its
                                             destination subset *)
                                          (match xm.other with
                                          | Some o -> Some o
                                          | None -> Some xm.subset)
                                      | _ -> None);
                                  };
                            }
                          else x)
                        (Sdfg.edges g))
                  readers;
                Sdfg.set_edges g @@ List.filter (fun (x : Sdfg.edge) -> x != we) (Sdfg.edges g);
                reanchor_deps g name
                  (if !events = [] then [ src_access ] else !events);
                Graph_util.remove_access_nodes_of g name;
                Graph_util.prune_isolated_access g;
                (* Dep edges are node-granular, so re-anchoring one that
                   really ordered a single movement constrains every reader;
                   when that over-approximation closes a cycle, keeping the
                   scalar is the only sound choice. *)
                if commit_if_acyclic () then begin
                  Sdfg.remove_container sdfg name;
                  changed := true;
                  progress := true
                end
            | _ -> ())
        | _ -> ())
      scalars
  done;
  !changed
