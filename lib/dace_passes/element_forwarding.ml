(** Within-state element forwarding — the data-centric counterpart of
    store-to-load forwarding, part of redundant-copy removal (§6.2).

    After fusion, a state often writes [C[s]] and immediately reads the same
    element ([c[i] = a[i]] fused with [b[i] = scalar * c[i]]). When the
    state contains exactly one write to [C[s]] (a tasklet output, no WCR)
    and a dependency path orders that write before the reader, the reader's
    memlet is replaced by a direct value edge — one memory round-trip per
    element disappears. *)

open Dcir_sdfg
open Dcir_symbolic

(* Is there a path src -> dst (any edges)? *)
let reachable (g : Sdfg.graph) (src : int) (dst : int) : bool =
  let visited = Hashtbl.create 16 in
  let rec dfs n =
    n = dst
    || (not (Hashtbl.mem visited n))
       && begin
            Hashtbl.replace visited n ();
            List.exists
              (fun (e : Sdfg.edge) -> e.e_src = n && dfs e.e_dst)
              (Sdfg.edges g)
          end
  in
  dfs src

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  List.iter
    (fun (st : Sdfg.state) ->
      let g = st.s_graph in
      let node = Graph_util.node_lookup g in
      (* Tasklet writes per (container, subset-string). *)
      let writes =
        List.filter_map
          (fun (e : Sdfg.edge) ->
            match
              ((node e.e_src).kind, (node e.e_dst).kind, e.e_src_conn,
               e.e_memlet)
            with
            | Sdfg.TaskletN _, Sdfg.Access _, Some conn, Some m
              when m.wcr = None && List.for_all Range.is_index m.subset ->
                Some (m.data, Range.to_string m.subset, e.e_src, conn, e)
            | _ -> None)
          (Sdfg.edges g)
      in
      (* Containers with more than one write (any kind, any subset) in this
         state are unsafe to forward: a second write may alias the element
         between the matched write and the read. *)
      let write_counts : (string, int) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun (e : Sdfg.edge) ->
          match ((node e.e_dst).kind, e.e_memlet) with
          | Sdfg.Access n, Some _ ->
              Hashtbl.replace write_counts n
                (1 + Option.value ~default:0 (Hashtbl.find_opt write_counts n))
          | _ -> ())
        (Sdfg.edges g);
      let reader_edges =
        List.filter
          (fun (e : Sdfg.edge) ->
            match
              ((node e.e_src).kind, (node e.e_dst).kind, e.e_dst_conn,
               e.e_memlet)
            with
            | Sdfg.Access _, Sdfg.TaskletN _, Some _, Some m -> m.wcr = None
            | _ -> false)
          (Sdfg.edges g)
      in
      List.iter
        (fun (re : Sdfg.edge) ->
          match re.e_memlet with
          | Some m when List.for_all Range.is_index m.subset ->
              let key = Range.to_string m.subset in
              let matching =
                List.filter
                  (fun (data, wkey, _, _, _) ->
                    String.equal data m.data && String.equal wkey key)
                  writes
              in
              (match matching with
              | [ (_, _, writer_nid, wconn, _) ]
                when Hashtbl.find_opt write_counts m.data = Some 1
                     && writer_nid <> re.e_dst
                     && reachable g writer_nid re.e_dst
                     && not (reachable g re.e_dst writer_nid) ->
                  (* Unique ordered write: forward the value directly. *)
                  Sdfg.set_edges g @@
                    List.map
                      (fun (x : Sdfg.edge) ->
                        if x == re then
                          {
                            x with
                            e_src = writer_nid;
                            e_src_conn = Some wconn;
                            e_memlet = None;
                          }
                        else x)
                      (Sdfg.edges g);
                  changed := true
              | _ -> ())
          | _ -> ())
        reader_edges;
      Graph_util.prune_isolated_access g)
    (Sdfg.states sdfg);
  !changed
