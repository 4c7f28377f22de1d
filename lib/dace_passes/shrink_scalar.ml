(** Intermediate-array shrinking — the payoff of memory-reducing loop fusion
    (§6.3): "this reduces the size of the intermediate array to a scalar
    (or the common subregion), promoting cache locality and reducing memory
    footprint".

    After fusion, a transient array whose every access (in the whole SDFG)
    lives in a single state and touches one identical single-element subset
    is demoted to a register scalar: per-iteration intermediates like Mish's
    softplus/tanh tensors stop existing in memory. Event ordering inside the
    state is already enforced by the fusion dependency edges, so rewriting
    the memlets to rank-0 preserves the write-before-read order. *)

open Dcir_sdfg
open Dcir_symbolic

(* Domain-local, for the same reason as [Dead_dataflow.eliminated_counter]. *)
let counter : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let referenced = Graph_util.symbolically_referenced sdfg in
  let candidates =
    Hashtbl.fold
      (fun name (c : Sdfg.container) acc ->
        if
          c.transient
          && (not (Sdfg.is_scalar c))
          && (not (Hashtbl.mem referenced name))
          && sdfg.return_scalar <> Some name
        then name :: acc
        else acc)
      sdfg.containers []
    |> List.sort compare
  in
  let index = Graph_util.access_index sdfg in
  List.iter
    (fun name ->
      let writers = Graph_util.all_writer_edges index name in
      let readers = Graph_util.all_reader_edges index name in
      let all = writers @ readers in
      match all with
      | [] -> ()
      | ((st0, g0, _) : Sdfg.state * Sdfg.graph * Sdfg.edge) :: _ ->
          let same_graph =
            List.for_all (fun ((st, g, _) : Sdfg.state * Sdfg.graph * _) ->
                st == st0 && g == g0)
              all
          in
          let subset_of ((_, g, e) : Sdfg.state * Sdfg.graph * Sdfg.edge) :
              Range.t option =
            match e.e_memlet with
            | Some m when String.equal m.data name -> Some m.subset
            | Some m -> (
                match (Sdfg.node_by_id g e.e_dst).kind with
                | Sdfg.Access n when String.equal n name -> m.other
                | _ -> None)
            | None -> None
          in
          let subsets = List.filter_map subset_of all in
          let single_identical =
            match subsets with
            | first :: rest ->
                List.length subsets = List.length all
                && List.for_all Range.is_index first
                && List.for_all (fun s -> Range.equal s first) rest
            | [] -> false
          in
          if same_graph && single_identical && writers <> [] then begin
            incr (Domain.DLS.get counter);
            let c = Sdfg.container sdfg name in
            c.shape <- [];
            c.storage <- Sdfg.Register;
            c.alloc_state <- None;
            c.alloc_in_loop <- false;
            (* Rewrite all memlets to rank-0. *)
            List.iter
              (fun ((_, g, e) : Sdfg.state * Sdfg.graph * Sdfg.edge) ->
                match e.e_memlet with
                | Some m when String.equal m.data name ->
                    e.e_memlet <- Some { m with subset = [] }
                | Some m -> (
                    match (Sdfg.node_by_id g e.e_dst).kind with
                    | Sdfg.Access n when String.equal n name ->
                        e.e_memlet <- Some { m with other = Some [] }
                    | _ -> ())
                | None -> ())
              all;
            changed := true
          end)
    candidates;
  !changed
