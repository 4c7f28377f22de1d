(** Scalar-to-symbol promotion (§6.1, ④).

    Elevates scalar containers into symbolic expressions when they can be
    represented as such and do not change during their lifetime:

    - {b read-only scalar parameters} become argument symbols;
    - {b write-once scalars} whose defining tasklet is symbolically
      expressible become symbols assigned on the interstate edges leaving
      the defining state.

    This is the pass that turns converter-generated pseudo-symbol subsets
    ([_arg0[_const]]) into genuinely analyzable symbolic subsets; symbol
    propagation then simplifies them further ([_arg0[0]], Fig 5's ④→⑤).

    Must run before state fusion: promotion assumes a scalar's readers live
    in states strictly after its defining state, which holds for the
    converter's one-op-per-state output. *)

open Dcir_sdfg
open Dcir_symbolic

let log_src = Logs.Src.create "dcir.dace.s2s"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The source scalar container feeding each input connector of a tasklet
   node, when every such input is a rank-0 read. *)
let scalar_input_sources (g : Sdfg.graph) (n : Sdfg.node) :
    (string * string) list option =
  let ins = Sdfg.node_in_edges g n in
  let sources =
    List.map
      (fun (e : Sdfg.edge) ->
        match (e.e_dst_conn, e.e_memlet) with
        | Some conn, Some m when m.subset = [] -> Some (conn, m.data)
        | _ -> None)
      ins
  in
  if List.for_all Option.is_some sources then
    Some (List.map Option.get sources)
  else None

(* Rewrite a reader tasklet so connector [conn] becomes the symbol [name]. *)
let replace_input_with_symbol (t : Sdfg.tasklet) (conn : string)
    (name : string) : Sdfg.tasklet option =
  match t.code with
  | Sdfg.Opaque _ -> None
  | Sdfg.Native assigns ->
      Some
        {
          t with
          t_inputs = List.filter (fun c -> not (String.equal c conn)) t.t_inputs;
          code =
            Sdfg.Native
              (List.map
                 (fun (out, e) -> (out, Texpr.subst_input conn (Texpr.TSym name) e))
                 assigns);
        }

(* Replace the tasklet record inside a node (nodes are immutable records;
   rebuild the node list). *)
let swap_tasklet (g : Sdfg.graph) (nid : int) (t : Sdfg.tasklet) : unit =
  Sdfg.set_nodes g @@
    List.map
      (fun (n : Sdfg.node) ->
        if n.nid = nid then { n with kind = Sdfg.TaskletN t } else n)
      (Sdfg.nodes g)

(* Can every reader of [name] be rewritten? Readers are either tasklet
   inputs (native only) or copy sources; copies stay (they just read the
   value through memory) — only rank-0 tasklet inputs need rewriting. *)
let rewire_readers (index : Graph_util.access_index) (name : string) : bool =
  let readers = Graph_util.all_reader_edges index name in
  let plan =
    List.map
      (fun ((_, g, e) : Sdfg.state * Sdfg.graph * Sdfg.edge) ->
        let dst = Sdfg.node_by_id g e.e_dst in
        match (dst.kind, e.e_dst_conn) with
        | Sdfg.TaskletN t, Some conn -> (
            match replace_input_with_symbol t conn name with
            | Some _ -> Some (`Swap (g, e, dst.nid, conn))
            | None -> None)
        | Sdfg.Access _, _ ->
            (* Copy out of the scalar: keep as a symbol-materializing
               tasklet? Simpler: leave the copy; the scalar keeps existing.
               Promotion with remaining copies is still correct only if the
               container also keeps its value — so reject. *)
            None
        | _ -> None)
      readers
  in
  if List.for_all Option.is_some plan then begin
    List.iter
      (function
        | Some (`Swap (g, e, nid, conn)) ->
            (* Re-read the node's current tasklet: one tasklet may read the
               scalar through several connectors (e.g. [n + n]), and each
               swap must build on the previous one, not on the original. *)
            (match (Sdfg.node_by_id g nid).kind with
            | Sdfg.TaskletN t -> (
                match replace_input_with_symbol t conn name with
                | Some t' -> swap_tasklet g nid t'
                | None -> ())
            | _ -> ());
            Sdfg.set_edges g @@
              List.filter (fun (x : Sdfg.edge) -> x != e) (Sdfg.edges g)
        | None -> ())
      plan;
    (* Removing a reader edge can leave the scalar's access node isolated
       in that reader's graph; prune it there and then, or the graph keeps
       an access node for a container about to be deleted. *)
    let pruned : Sdfg.graph list ref = ref [] in
    List.iter
      (function
        | Some (`Swap (g, _, _, _)) ->
            if not (List.memq g !pruned) then begin
              pruned := g :: !pruned;
              Graph_util.prune_isolated_access g
            end
        | None -> ())
      plan;
    true
  end
  else false

(* Remove an access node's incoming writer edge and the node if isolated. *)
let remove_writer (g : Sdfg.graph) (e : Sdfg.edge) : unit =
  Sdfg.set_edges g @@ List.filter (fun (x : Sdfg.edge) -> x != e) (Sdfg.edges g)

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    let containers =
      Hashtbl.fold (fun _ c acc -> c :: acc) sdfg.containers []
      |> List.sort (fun (a : Sdfg.container) b -> compare a.cname b.cname)
    in
    let index = Graph_util.access_index sdfg in
    List.iter
      (fun (c : Sdfg.container) ->
        if Sdfg.is_scalar c && c.dtype = Sdfg.DInt then begin
          let name = c.cname in
          let writers = Graph_util.all_writer_edges index name in
          match writers with
          | [] when not c.transient ->
              (* Read-only scalar parameter -> argument symbol. *)
              if rewire_readers index name then begin
                Sdfg.remove_container sdfg name;
                sdfg.arg_symbols <- sdfg.arg_symbols @ [ name ];
                (match sdfg.return_scalar with
                | Some r when String.equal r name ->
                    sdfg.return_scalar <- None;
                    sdfg.return_expr <- Some (Expr.sym name)
                | _ -> ());
                List.iter
                  (fun (st : Sdfg.state) ->
                    Graph_util.prune_isolated_access st.s_graph)
                  (Sdfg.states sdfg);
                Log.debug (fun f -> f "promoted parameter %s to symbol" name);
                changed := true;
                progress := true
              end
          | [ (st, g, e) ] when c.transient -> (
              (* Write-once transient: promotable if the writer is a native
                 tasklet with a symbolically-expressible value. *)
              let src = Sdfg.node_by_id g e.e_src in
              let value_expr =
                match (src.kind, e.e_src_conn) with
                | Sdfg.TaskletN { code = Native assigns; _ }, Some conn -> (
                    match List.assoc_opt conn assigns with
                    | Some texpr -> (
                        (* Inline rank-0 scalar inputs as pseudo-symbols. *)
                        match scalar_input_sources g src with
                        | Some sources ->
                            let inlined =
                              List.fold_left
                                (fun acc (cn, data) ->
                                  Texpr.subst_input cn (Texpr.TSym data) acc)
                                texpr sources
                            in
                            Texpr.to_expr inlined
                        | None -> None)
                    | None -> None)
                | Sdfg.Access other, None -> (
                    (* Copy from another scalar container. *)
                    match e.e_memlet with
                    | Some m when m.subset = [] && String.equal m.data other ->
                        Some (Expr.sym other)
                    | _ -> None)
                | _ -> None
              in
              match value_expr with
              | Some ex when e.e_memlet <> None
                             && (match e.e_memlet with
                                | Some m -> m.wcr = None
                                | None -> false)
                             && Sdfg.out_edges sdfg st.s_label <> [] ->
                  (* The write must only count scalar readers we can rewire
                     (pseudo-symbol readers are fine: the name becomes a true
                     symbol). *)
                  if rewire_readers index name then begin
                    (* Delete the defining tasklet (if it only feeds this),
                       its input edges, and the access node. *)
                    let tasklet_feeds_only_this =
                      match src.kind with
                      | Sdfg.TaskletN _ ->
                          List.length (Sdfg.node_out_edges g src) = 1
                      | _ -> false
                    in
                    remove_writer g e;
                    if tasklet_feeds_only_this then
                      Graph_util.remove_nodes g [ src.nid ];
                    Graph_util.prune_isolated_access g;
                    Sdfg.remove_container sdfg name;
                    (* Assignment fires when leaving the defining state;
                       inline any assignments already on those edges so
                       simultaneous-assignment semantics stay correct. *)
                    List.iter
                      (fun (oe : Sdfg.istate_edge) ->
                        let ex' =
                          Expr.subst
                            (fun s -> List.assoc_opt s oe.ie_assign)
                            ex
                        in
                        oe.ie_assign <- oe.ie_assign @ [ (name, ex') ])
                      (Sdfg.out_edges sdfg st.s_label);
                    (match sdfg.return_scalar with
                    | Some r when String.equal r name ->
                        sdfg.return_scalar <- None;
                        sdfg.return_expr <- Some (Expr.sym name)
                    | _ -> ());
                    Log.debug (fun f ->
                        f "promoted scalar %s := %s" name (Expr.to_string ex));
                    changed := true;
                    progress := true
                  end
              | _ -> ())
          | _ -> ()
        end)
      containers
  done;
  !changed
