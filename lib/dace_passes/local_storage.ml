(** Local-storage promotion of loop-invariant array references — the
    SDFG-side analogue of register promotion (part of the §6.3 memory
    scheduling optimizations, and what DaCe needs to keep accumulators like
    [C[i,j]] out of memory in the innermost loop).

    For a sequential loop whose (single-state) body accesses a container
    only through one loop-invariant single-element subset, the element is
    copied into a register transient before the loop, every body access is
    redirected to the register, and the value is written back after the
    loop. Applies to both native and opaque tasklet bodies (the rewrite is
    at the memlet level, not inside tasklet code). *)

open Dcir_sdfg
open Dcir_symbolic

(* All edges in [g] whose memlet touches [c] (as data or copy dst). *)
let touching_edges (g : Sdfg.graph) (c : string) : Sdfg.edge list =
  let node = Graph_util.node_lookup g in
  List.filter
    (fun (e : Sdfg.edge) ->
      match e.e_memlet with
      | Some m ->
          String.equal m.data c
          || (match (node e.e_dst).kind with
             | Sdfg.Access n -> String.equal n c && m.other <> None
             | _ -> false)
      | None -> false)
    (Sdfg.edges g)

(* One promotion per call; [run] iterates because each splice invalidates
   the loop analysis (edges are replaced functionally). *)
let promote_one (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let loops = Loop_analysis.find_loops sdfg in
  List.iter
    (fun (l : Loop_analysis.loop) ->
      (* Symbols in scope at this loop's position: argument symbols and the
         induction symbols of enclosing loops — not arbitrary edge-assigned
         symbols, which may be unbound when the pre/post states run. *)
      let syms : (string, unit) Hashtbl.t = Hashtbl.create 8 in
      List.iter (fun s -> Hashtbl.replace syms s ()) sdfg.arg_symbols;
      List.iter
        (fun (outer : Loop_analysis.loop) ->
          if List.mem l.guard outer.body then
            Hashtbl.replace syms outer.sym ())
        loops;
      if !changed then ()
      else
      match Loop_analysis.single_state_body sdfg l with
      | None -> ()
      | Some body ->
          let g = body.s_graph in
          (* Skip bodies containing maps (subset reasoning would need the
             map params). *)
          let has_map =
            List.exists
              (fun (n : Sdfg.node) ->
                match n.kind with Sdfg.MapN _ -> true | _ -> false)
              (Sdfg.nodes g)
          in
          if not has_map then begin
            let module S = Set.Make (String) in
            let candidates =
              S.elements
                (S.of_list
                   (Sdfg.read_containers g @ Sdfg.written_containers g))
              |> List.filter (fun c ->
                     match Hashtbl.find_opt sdfg.containers c with
                     | Some cont ->
                         (not (Sdfg.is_scalar cont))
                         && cont.storage <> Sdfg.Register
                     | None -> false)
            in
            List.iter
              (fun cname ->
                if !changed then ()
                else
                let edges = touching_edges g cname in
                let subsets =
                  List.filter_map
                    (fun (e : Sdfg.edge) ->
                      match e.e_memlet with
                      | Some m when String.equal m.data cname -> Some m.subset
                      | Some m -> m.other
                      | None -> None)
                    edges
                in
                match subsets with
                | first :: rest
                  when List.for_all Range.is_index first
                       && Graph_util.subset_analyzable syms first
                       && (not (List.mem l.sym (Range.free_syms first)))
                       && List.for_all (fun s -> Range.equal s first) rest
                       && List.exists
                            (fun (e : Sdfg.edge) ->
                              (* only promote read-modify-write patterns *)
                              match (Sdfg.node_by_id g e.e_dst).kind with
                              | Sdfg.Access n -> String.equal n cname
                              | _ -> false)
                            edges ->
                    let reg = Sdfg.fresh_name sdfg "_ls" in
                    let cont = Sdfg.container sdfg cname in
                    ignore
                      (Sdfg.add_container sdfg ~transient:true
                         ~storage:Sdfg.Register ~dtype:cont.dtype ~shape:[]
                         reg);
                    (* Redirect body accesses. *)
                    List.iter
                      (fun (e : Sdfg.edge) ->
                        match e.e_memlet with
                        | Some m when String.equal m.data cname ->
                            e.e_memlet <-
                              Some { m with data = reg; subset = [] }
                        | Some m -> e.e_memlet <- Some { m with other = Some [] }
                        | None -> ())
                      edges;
                    (* Rename the access nodes of cname to reg. *)
                    Sdfg.set_nodes g @@
                      List.map
                        (fun (n : Sdfg.node) ->
                          match n.kind with
                          | Sdfg.Access c when String.equal c cname ->
                              { n with kind = Sdfg.Access reg }
                          | _ -> n)
                        (Sdfg.nodes g);
                    (* Preload state before the loop. *)
                    let pre = Sdfg.add_state sdfg (Sdfg.fresh_name sdfg "ls_pre") in
                    let src = Sdfg.add_node pre.s_graph (Sdfg.Access cname) in
                    let dst = Sdfg.add_node pre.s_graph (Sdfg.Access reg) in
                    ignore
                      (Sdfg.add_edge pre.s_graph
                         ~memlet:
                           { Sdfg.data = cname; subset = first; wcr = None;
                             other = Some [] }
                         src dst);
                    (* Poststore state after the loop. *)
                    let post =
                      Sdfg.add_state sdfg (Sdfg.fresh_name sdfg "ls_post")
                    in
                    let src2 = Sdfg.add_node post.s_graph (Sdfg.Access reg) in
                    let dst2 = Sdfg.add_node post.s_graph (Sdfg.Access cname) in
                    ignore
                      (Sdfg.add_edge post.s_graph
                         ~memlet:
                           { Sdfg.data = reg; subset = []; wcr = None;
                             other = Some first }
                         src2 dst2);
                    (* Splice: entry edge now targets the preload state, the
                       exit edge targets the poststore. The loop-entry
                       assignments (e.g. [i := 0]) move to the pre->guard
                       edge so the guard keeps its loop shape for later
                       analyses; [first] never references them (checked by
                       the in-scope symbol test above). *)
                    let old_entry_dst = l.entry_edge.ie_dst in
                    let old_exit_dst = l.exit_edge.ie_dst in
                    let entry_assigns = l.entry_edge.ie_assign in
                    (* Exit-edge assignments (e.g. an enclosing loop's
                       induction increment after fusion) must fire *after*
                       the write-back, or the store subset would be
                       evaluated with post-increment symbol values. *)
                    let exit_assigns = l.exit_edge.ie_assign in
                    Sdfg.set_istate_edges sdfg @@
                      List.map
                        (fun (e : Sdfg.istate_edge) ->
                          if e == l.entry_edge then
                            { e with ie_dst = pre.s_label; ie_assign = [] }
                          else if e == l.exit_edge then
                            { e with ie_dst = post.s_label; ie_assign = [] }
                          else e)
                        (Sdfg.istate_edges sdfg);
                    Sdfg.add_istate_edge sdfg ~assign:entry_assigns
                      ~src:pre.s_label ~dst:old_entry_dst ();
                    Sdfg.add_istate_edge sdfg ~assign:exit_assigns
                      ~src:post.s_label ~dst:old_exit_dst ();
                    changed := true
                | _ -> ())
              candidates
          end)
    loops;
  !changed

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let rounds = ref 0 in
  while promote_one sdfg && !rounds < 200 do
    incr rounds;
    changed := true
  done;
  !changed
