(** Dead dataflow elimination (§6.2, second half of the extended DCE).

    Computes a {e usefulness} fixpoint over containers and dataflow nodes:

    - useful containers: non-transients (outputs), the return value, and
      containers read symbolically (conditions, subsets, shapes);
    - a node is useful when it writes a useful container (directly or
      through a value edge into a useful node);
    - everything a useful node reads is useful.

    All writes into useless containers and all useless computations are
    removed, iterating to a fixpoint. Self-sustaining cycles ([A[j] = A[i]]
    with [A] never otherwise read — the Fig 2 pattern) are dead because
    usefulness is a least fixpoint. Containers left with no accesses are
    dropped entirely, removing their allocations; the count feeds the §7.3
    "63 arrays and scalars eliminated" statistic. *)

open Dcir_sdfg

(* Domain-local: [Driver.optimize] reads it as a before/after delta, so
   compiles running on two domains must not see each other's counts. *)
let eliminated_counter : int ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref 0)

(* Usefulness analysis over one SDFG, given its symbolically referenced
   containers. *)
let compute_useful (sdfg : Sdfg.t) (referenced : (string, unit) Hashtbl.t) :
    (string, unit) Hashtbl.t =
  let useful : (string, unit) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.iter
    (fun name (c : Sdfg.container) ->
      if not c.transient then Hashtbl.replace useful name ())
    sdfg.containers;
  Hashtbl.iter (fun name () -> Hashtbl.replace useful name ()) referenced;
  (match sdfg.return_scalar with
  | Some r -> Hashtbl.replace useful r ()
  | None -> ());
  (* Node-level usefulness per graph, re-evaluated to a global fixpoint. A
     state's outcome depends on [useful] only through the containers it
     holds access nodes of, so a newly useful container re-evaluates just
     those states; any order reaches the same least fixpoint. *)
  let index = Graph_util.access_index sdfg in
  let states = index.ai_states in
  let dirty = Array.make (Array.length states) true in
  let pending = ref true in
  let mark name =
    if not (Hashtbl.mem useful name) then begin
      Hashtbl.replace useful name ();
      List.iter
        (fun i ->
          dirty.(i) <- true;
          pending := true)
        (Graph_util.access_positions index name)
    end
  in
  let rec process (g : Sdfg.graph) =
    let node = Graph_util.node_lookup g in
    (* Useful nodes: writers into useful containers and maps whose body
       writes one, then backwards along value edges (memlet-free, into a
       connector) from every useful consumer. *)
    let node_useful : (int, unit) Hashtbl.t = Hashtbl.create 16 in
    let work = Queue.create () in
    let add nid =
      if not (Hashtbl.mem node_useful nid) then begin
        Hashtbl.replace node_useful nid ();
        Queue.push nid work
      end
    in
    let value_sources : (int, int) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (e : Sdfg.edge) ->
        match ((node e.e_dst).kind, e.e_memlet) with
        | Sdfg.Access n, Some _ -> if Hashtbl.mem useful n then add e.e_src
        | _, None ->
            if e.e_dst_conn <> None then
              Hashtbl.add value_sources e.e_dst e.e_src
        | _ -> ())
      (Sdfg.edges g);
    List.iter
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.MapN mn
          when List.exists (Hashtbl.mem useful)
                 (Sdfg.written_containers mn.m_body) ->
            add n.nid
        | _ -> ())
      (Sdfg.nodes g);
    while not (Queue.is_empty work) do
      List.iter add (Hashtbl.find_all value_sources (Queue.pop work))
    done;
    (* Everything a useful node reads is a useful container. *)
    List.iter
      (fun (e : Sdfg.edge) ->
        match ((node e.e_src).kind, e.e_memlet) with
        | Sdfg.Access n, Some _ when Hashtbl.mem node_useful e.e_dst -> mark n
        | _ -> ())
      (Sdfg.edges g);
    (* Copies into useful containers read their source. *)
    List.iter
      (fun (e : Sdfg.edge) ->
        match ((node e.e_src).kind, (node e.e_dst).kind, e.e_memlet) with
        | Sdfg.Access src, Sdfg.Access dst, Some _ when Hashtbl.mem useful dst
          ->
            mark src
        | _ -> ())
      (Sdfg.edges g);
    List.iter
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.MapN mn ->
            if
              List.exists (Hashtbl.mem useful)
                (Sdfg.written_containers mn.m_body)
            then List.iter mark (Sdfg.read_containers mn.m_body);
            process mn.m_body
        | _ -> ())
      (Sdfg.nodes g)
  in
  while !pending do
    pending := false;
    Array.iteri
      (fun i (st : Sdfg.state) ->
        if dirty.(i) then begin
          dirty.(i) <- false;
          process st.s_graph
        end)
      states
  done;
  useful

(* Every container with a reader or a writer edge anywhere, in one scan:
   both kinds of edge touch an access node of the container. *)
let accessed_containers (sdfg : Sdfg.t) : (string, unit) Hashtbl.t =
  let acc = Hashtbl.create 64 in
  let rec visit (g : Sdfg.graph) =
    let node = Graph_util.node_lookup g in
    List.iter
      (fun (e : Sdfg.edge) ->
        List.iter
          (fun nid ->
            match (node nid).kind with
            | Sdfg.Access n
              when Graph_util.writes_into node n e
                   || Graph_util.reads_from node n e ->
                Hashtbl.replace acc n ()
            | _ -> ())
          [ e.e_dst; e.e_src ])
      (Sdfg.edges g);
    List.iter
      (fun (n : Sdfg.node) ->
        match n.kind with Sdfg.MapN mn -> visit mn.m_body | _ -> ())
      (Sdfg.nodes g)
  in
  List.iter (fun (st : Sdfg.state) -> visit st.s_graph) (Sdfg.states sdfg);
  acc

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let progress = ref true in
  (* The symbolically referenced containers, recomputed only after a step
     that edited the SDFG since the last computation. *)
  let referenced = ref (Hashtbl.create 0) and stale = ref true in
  let refresh () =
    if !stale then begin
      referenced := Graph_util.symbolically_referenced sdfg;
      stale := false
    end
  in
  while !progress do
    progress := false;
    refresh ();
    let useful = compute_useful sdfg !referenced in
    (* Remove writes into useless containers, then useless computations. *)
    let rec clean (g : Sdfg.graph) =
      let node = Graph_util.node_lookup g in
      let dead_write (e : Sdfg.edge) : bool =
        match ((node e.e_dst).kind, e.e_memlet) with
        | Sdfg.Access name, Some _ -> not (Hashtbl.mem useful name)
        | _ -> false
      in
      let before = List.length (Sdfg.edges g) in
      Sdfg.set_edges g @@ List.filter (fun e -> not (dead_write e)) (Sdfg.edges g);
      if List.length (Sdfg.edges g) <> before then begin
        changed := true;
        progress := true
      end;
      List.iter
        (fun (n : Sdfg.node) ->
          match n.kind with Sdfg.MapN mn -> clean mn.m_body | _ -> ())
        (Sdfg.nodes g);
      (* Remove tasklets with no outputs and maps with no effect. *)
      let continue_ = ref true in
      while !continue_ do
        continue_ := false;
        let sources = Hashtbl.create 64 in
        List.iter
          (fun (e : Sdfg.edge) -> Hashtbl.replace sources e.e_src ())
          (Sdfg.edges g);
        let dead_nodes =
          List.filter
            (fun (n : Sdfg.node) ->
              match n.kind with
              | Sdfg.TaskletN _ -> not (Hashtbl.mem sources n.nid)
              | Sdfg.MapN mn -> Sdfg.written_containers mn.m_body = []
              | Sdfg.Access _ -> false)
            (Sdfg.nodes g)
        in
        if dead_nodes <> [] then begin
          Graph_util.remove_nodes g
            (List.map (fun (n : Sdfg.node) -> n.nid) dead_nodes);
          changed := true;
          progress := true;
          continue_ := true
        end
      done;
      Graph_util.prune_isolated_access g
    in
    List.iter (fun (st : Sdfg.state) -> clean st.s_graph) (Sdfg.states sdfg);
    if !progress then stale := true;
    refresh ();
    (* Containers with no accesses at all disappear. *)
    let accessed = accessed_containers sdfg in
    let to_remove =
      Hashtbl.fold
        (fun name (c : Sdfg.container) acc ->
          if
            c.transient
            && (not (Hashtbl.mem !referenced name))
            && sdfg.return_scalar <> Some name
            && not (Hashtbl.mem accessed name)
          then name :: acc
          else acc)
        sdfg.containers []
    in
    List.iter
      (fun name ->
        Sdfg.remove_container sdfg name;
        (* Drop leftover access nodes (kept alive by dependency edges),
           bridging their ordering edges. *)
        List.iter
          (fun (st : Sdfg.state) ->
            let rec clean_nodes (g : Sdfg.graph) =
              Graph_util.remove_access_nodes_of g name;
              List.iter
                (fun (n : Sdfg.node) ->
                  match n.kind with
                  | Sdfg.MapN mn -> clean_nodes mn.m_body
                  | _ -> ())
                (Sdfg.nodes g)
            in
            clean_nodes st.s_graph)
          (Sdfg.states sdfg);
        incr (Domain.DLS.get eliminated_counter);
        stale := true;
        changed := true;
        progress := true)
      to_remove
  done;
  !changed
