(** Loop-invariant state machine collapsing and dead-write range narrowing —
    the symbolic-analysis extensions of array elimination (§6.2) that the
    motivating example (Fig 2) exercises.

    {b Invariant collapse}: a loop whose body does not depend on the
    induction symbol, carries no state across iterations (no container both
    read and written, no WCR, no recurring allocation), and provably runs at
    least once, performs the same idempotent writes every iteration — it is
    replaced by a single execution of its body.

    {b Write narrowing}: when a transient container's reads are confined to
    a statically-known bounding box, a loop that only writes that container
    element-wise at [C[i]] can shrink its iteration range to the box —
    writes outside it land in elements that are provably never read. *)

open Dcir_sdfg
open Dcir_symbolic

(* Symbols referenced by the body: graphs plus intra-body edges. *)
let body_free_syms (sdfg : Sdfg.t) (l : Loop_analysis.loop) : string list =
  let module S = Set.Make (String) in
  let acc = ref S.empty in
  let add xs = List.iter (fun s -> acc := S.add s !acc) xs in
  List.iter
    (fun (st : Sdfg.state) ->
      if List.mem st.s_label l.body then add (Sdfg.graph_free_syms st.s_graph))
    (Sdfg.states sdfg);
  List.iter
    (fun (e : Sdfg.istate_edge) ->
      if
        List.mem e.ie_src l.body && List.mem e.ie_dst l.body
        && not (e == l.back_edge)
      then begin
        add (Bexpr.free_syms e.ie_cond);
        List.iter (fun (_, ex) -> add (Expr.free_syms ex)) e.ie_assign
      end)
    (Sdfg.istate_edges sdfg);
  S.elements !acc

let body_states (sdfg : Sdfg.t) (l : Loop_analysis.loop) : Sdfg.state list =
  List.filter (fun (s : Sdfg.state) -> List.mem s.s_label l.body) (Sdfg.states sdfg)

let has_carried_state (sdfg : Sdfg.t) (l : Loop_analysis.loop) : bool =
  let states = body_states sdfg l in
  let reads =
    List.concat_map (fun (s : Sdfg.state) -> Sdfg.read_containers s.s_graph) states
  in
  let writes =
    List.concat_map
      (fun (s : Sdfg.state) -> Sdfg.written_containers s.s_graph)
      states
  in
  List.exists (fun c -> List.mem c writes) reads

let has_wcr_or_recurring_alloc (sdfg : Sdfg.t) (l : Loop_analysis.loop) : bool
    =
  let wcr = ref false in
  List.iter
    (fun (s : Sdfg.state) ->
      let rec go (g : Sdfg.graph) =
        List.iter
          (fun (e : Sdfg.edge) ->
            match e.e_memlet with
            | Some m when m.wcr <> None -> wcr := true
            | _ -> ())
          (Sdfg.edges g);
        List.iter
          (fun (n : Sdfg.node) ->
            match n.kind with Sdfg.MapN mn -> go mn.m_body | _ -> ())
          (Sdfg.nodes g)
      in
      go s.s_graph)
    (body_states sdfg l);
  !wcr
  || Hashtbl.fold
       (fun _ (c : Sdfg.container) acc ->
         acc
         || (c.alloc_in_loop
            && match c.alloc_state with
               | Some s -> List.mem s l.body
               | None -> false))
       sdfg.containers false

(* Provably at least one iteration: condition holds at i = init. *)
let runs_at_least_once (l : Loop_analysis.loop) : bool =
  let cond0 =
    Bexpr.subst
      (fun s -> if String.equal s l.sym then Some l.init else None)
      l.cond
  in
  Bexpr.decide cond0 = Some true

let collapse (sdfg : Sdfg.t) (l : Loop_analysis.loop) : unit =
  (* entry -> body_entry directly (keep assignments: the induction symbol
     may still appear in leftover metadata; it is unused by the body). *)
  let body_entry = l.continue_edge.ie_dst in
  let exit_dst = l.exit_edge.ie_dst in
  let latch = l.back_edge.ie_src in
  Sdfg.set_istate_edges sdfg @@
    List.filter_map
      (fun (e : Sdfg.istate_edge) ->
        if e == l.entry_edge then Some { e with ie_dst = body_entry }
        else if e == l.back_edge then
          (* The induction increment is dropped, but assignments the exit
             edge carried (e.g. the next loop's init after fusion) still
             fire when leaving the loop. *)
          Some
            {
              e with
              ie_src = latch;
              ie_dst = exit_dst;
              ie_assign = l.exit_edge.ie_assign;
            }
        else if e == l.continue_edge || e == l.exit_edge then None
        else Some e)
      (Sdfg.istate_edges sdfg);
  Sdfg.set_states sdfg @@
    List.filter
      (fun (s : Sdfg.state) -> not (String.equal s.s_label l.guard))
      (Sdfg.states sdfg)

let collapse_invariant_loops (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    let loops = Loop_analysis.find_loops sdfg in
    let candidate =
      List.find_opt
        (fun (l : Loop_analysis.loop) ->
          l.body <> []
          && (not (List.mem l.sym (body_free_syms sdfg l)))
          && (not (has_carried_state sdfg l))
          && (not (has_wcr_or_recurring_alloc sdfg l))
          && runs_at_least_once l
          (* Exit-edge assignments survive the collapse verbatim, so they
             must not read the induction symbol (whose final value the
             collapsed form no longer computes). *)
          && List.for_all
               (fun (_, ex) -> not (List.mem l.sym (Expr.free_syms ex)))
               l.exit_edge.ie_assign
          (* No nested loop may use l.sym either (covered by free syms);
             nested guards live in l.body so their conditions are checked. *))
        loops
    in
    match candidate with
    | Some l ->
        collapse sdfg l;
        changed := true;
        progress := true
    | None -> ()
  done;
  !changed

(* ------------------------------------------------------------------ *)
(* Write narrowing *)

let narrow_writes (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  (* Read bounding boxes must be static: only caller-bound argument symbols
     (and constants) qualify — loop-variant symbols do not describe a box. *)
  let syms : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace syms s ()) sdfg.arg_symbols;
  let loops = Loop_analysis.find_loops sdfg in
  (* Narrowing edits only interstate edges, so one index serves every
     loop; most calls never query it. *)
  let index = lazy (Graph_util.access_index sdfg) in
  List.iter
    (fun (l : Loop_analysis.loop) ->
      match Loop_analysis.single_state_body sdfg l with
      | None -> ()
      | Some body -> (
          let writes = Sdfg.written_containers body.s_graph in
          match writes with
          | [ c ] -> (
              match Hashtbl.find_opt sdfg.containers c with
              | Some cont
                when cont.transient
                     && (not (List.mem c (Sdfg.read_containers body.s_graph)))
                     && List.length cont.shape = 1 -> (
                  (* Every write subset must be exactly [l.sym]; every read
                     of c anywhere must have a static bounding box. *)
                  let writer_subsets =
                    Graph_util.writer_edges body.s_graph c
                    |> List.filter_map (fun ((_, e) : _ * Sdfg.edge) ->
                           match e.e_memlet with
                           | Some m when String.equal m.data c -> Some m.subset
                           | Some m -> m.other
                           | None -> None)
                  in
                  let identity_writes =
                    writer_subsets <> []
                    && List.for_all
                         (fun (s : Range.t) ->
                           match s with
                           | [ d ] ->
                               Range.is_index d
                               && Expr.equal d.lo (Expr.sym l.sym)
                           | _ -> false)
                         writer_subsets
                  in
                  let readers =
                    Graph_util.all_reader_edges (Lazy.force index) c
                  in
                  let read_boxes =
                    List.map
                      (fun ((_, _, e) : _ * _ * Sdfg.edge) ->
                        match e.e_memlet with
                        | Some m when Graph_util.subset_analyzable syms m.subset
                          ->
                            Some m.subset
                        | _ -> None)
                      readers
                  in
                  match (identity_writes, read_boxes) with
                  | true, boxes
                    when readers <> [] && List.for_all Option.is_some boxes ->
                      let boxes = List.map Option.get boxes in
                      let union =
                        List.fold_left Range.union (List.hd boxes)
                          (List.tl boxes)
                      in
                      (match union with
                      | [ d ] -> (
                          (* New range: [max(init, lo), min(bound, hi+1)). *)
                          match l.cond with
                          | Bexpr.Cmp (Bexpr.Lt, Expr.Sym s, ub)
                            when String.equal s l.sym
                                 && Expr.is_constant l.step = Some 1 ->
                              let new_init = Expr.max_ l.init d.lo in
                              let new_ub =
                                Expr.min_ ub (Expr.add d.hi Expr.one)
                              in
                              if
                                (not (Expr.equal new_init l.init))
                                || not (Expr.equal new_ub ub)
                              then begin
                                l.entry_edge.ie_assign <-
                                  List.map
                                    (fun (sym, e) ->
                                      if String.equal sym l.sym then
                                        (sym, new_init)
                                      else (sym, e))
                                    l.entry_edge.ie_assign;
                                l.continue_edge.ie_cond <-
                                  Bexpr.lt (Expr.sym l.sym) new_ub;
                                l.exit_edge.ie_cond <-
                                  Bexpr.ge (Expr.sym l.sym) new_ub;
                                changed := true
                              end
                          | _ -> ())
                      | _ -> ())
                  | _ -> ())
              | _ -> ())
          | _ -> ()))
    loops;
  !changed

let run (sdfg : Sdfg.t) : bool =
  let a = narrow_writes sdfg in
  let b = collapse_invariant_loops sdfg in
  a || b
