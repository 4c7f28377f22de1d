(** Memory-reducing loop fusion (§6.3).

    Fuses adjacent state-machine loops with identical symbolic ranges when
    every access to a container shared by both bodies is the {e same}
    single-element subset per iteration (after renaming the second loop's
    induction symbol). Together with scalar forwarding and dead dataflow
    elimination this shrinks intermediate arrays that are written in one
    loop and read in the next — the transformation that removes Mish's
    intermediate tensors and fuses the bandwidth benchmark's passes. *)

open Dcir_sdfg
open Dcir_symbolic

let rec bexpr_equal (a : Bexpr.t) (b : Bexpr.t) : bool =
  match (a, b) with
  | Bexpr.Bool x, Bexpr.Bool y -> x = y
  | Bexpr.Cmp (o1, a1, b1), Bexpr.Cmp (o2, a2, b2) ->
      o1 = o2 && Expr.equal a1 a2 && Expr.equal b1 b2
  | Bexpr.And (x1, y1), Bexpr.And (x2, y2)
  | Bexpr.Or (x1, y1), Bexpr.Or (x2, y2) ->
      bexpr_equal x1 x2 && bexpr_equal y1 y2
  | Bexpr.Not x, Bexpr.Not y -> bexpr_equal x y
  | _ -> false

(* Rename a symbol inside one graph (subsets + tasklet code + declared
   tasklet symbols + map ranges). [t_syms] must be renamed for both tasklet
   kinds: the interpreter binds those names against the interstate-edge
   environment at run time, and the old induction symbol is no longer
   assigned after fusion. Opaque bodies bind symbols positionally through
   [t_syms], but any residual [sdfg.sym] expression attributes are rewritten
   too so the graph's free-symbol accounting stays truthful. *)
let rename_sym_in_graph (g : Sdfg.graph) ~(from_ : string) ~(to_ : string) :
    unit =
  let lookup s = if String.equal s from_ then Some (Expr.sym to_) else None in
  let rename_name s = if String.equal s from_ then to_ else s in
  let rec go (g : Sdfg.graph) =
    List.iter
      (fun (e : Sdfg.edge) ->
        match e.e_memlet with
        | Some m ->
            e.e_memlet <-
              Some
                {
                  m with
                  subset = Range.subst lookup m.subset;
                  other = Option.map (Range.subst lookup) m.other;
                }
        | None -> ())
      (Sdfg.edges g);
    Sdfg.set_nodes g @@
      List.map
        (fun (n : Sdfg.node) ->
          match n.kind with
          | Sdfg.TaskletN ({ code = Native assigns; _ } as t) ->
              {
                n with
                kind =
                  Sdfg.TaskletN
                    {
                      t with
                      t_syms = List.map rename_name t.t_syms;
                      code =
                        Sdfg.Native
                          (List.map
                             (fun (o, e) -> (o, Texpr.subst_syms lookup e))
                             assigns);
                    };
              }
          | Sdfg.TaskletN ({ code = Opaque f; _ } as t) ->
              (match f.Dcir_mlir.Ir.fbody with
              | Some r ->
                  Dcir_mlir.Ir.walk_region r (fun o ->
                      match Dcir_mlir.Sdfg_d.sym_expr o with
                      | Some e ->
                          Dcir_mlir.Ir.set_attr o Dcir_mlir.Sdfg_d.k_expr
                            (Dcir_mlir.Attr.AExpr (Expr.subst lookup e))
                      | None -> ())
              | None -> ());
              {
                n with
                kind =
                  Sdfg.TaskletN
                    { t with t_syms = List.map rename_name t.t_syms };
              }
          | Sdfg.MapN mn ->
              mn.m_ranges <- Range.subst lookup mn.m_ranges;
              go mn.m_body;
              n
          | _ -> n)
        (Sdfg.nodes g)
  in
  go g

(* All memlet subsets on container [c] in a graph. *)
let subsets_of (g : Sdfg.graph) (c : string) : Range.t list =
  let node = Graph_util.node_lookup g in
  List.filter_map
    (fun (e : Sdfg.edge) ->
      match e.e_memlet with
      | Some m when String.equal m.data c -> Some m.subset
      | Some m when m.other <> None -> (
          match (node e.e_dst).kind with
          | Sdfg.Access n when String.equal n c -> m.other
          | _ -> None)
      | _ -> None)
    (Sdfg.edges g)

let can_fuse (sdfg : Sdfg.t) (l1 : Loop_analysis.loop)
    (l2 : Loop_analysis.loop) (b1 : Sdfg.state) (b2 : Sdfg.state) : bool =
  let syms = Graph_util.true_symbols sdfg in
  let rename s = Expr.subst_one l2.sym (Expr.sym l1.sym) s in
  let rename_range (r : Range.t) =
    List.map
      (fun (d : Range.dim) ->
        { Range.lo = rename d.lo; hi = rename d.hi; step = rename d.step })
      r
  in
  Expr.equal l1.init l2.init
  && Expr.equal l1.step l2.step
  && bexpr_equal l1.cond
       (match l2.cond with
       | Bexpr.Cmp (op, a, b) -> Bexpr.Cmp (op, rename a, rename b)
       | c -> c)
  &&
  let module S = Set.Make (String) in
  let touched g = S.of_list (Sdfg.read_containers g @ Sdfg.written_containers g) in
  let shared = S.inter (touched b1.s_graph) (touched b2.s_graph) in
  let written c =
    List.mem c (Sdfg.written_containers b1.s_graph)
    || List.mem c (Sdfg.written_containers b2.s_graph)
  in
  S.for_all
    (fun c ->
      let s1 = subsets_of b1.s_graph c in
      let s2 = List.map rename_range (subsets_of b2.s_graph c) in
      match s1 @ s2 with
      | [] -> true
      | first :: rest ->
          List.for_all Range.is_index first
          && Graph_util.subset_analyzable syms first
          && List.for_all (fun s -> Range.equal s first) rest
          (* If either loop writes the container, the common subset must
             vary with the iteration: a loop-invariant element written in
             the first loop and read in the second sees partial sums after
             fusion. *)
          && ((not (written c)) || List.mem l1.sym (Range.free_syms first)))
    shared

(* Merge b2's graph into b1 with sequencing edges, as state fusion does. *)
let merge_bodies (b1 : Sdfg.state) (b2 : Sdfg.state) : unit =
  let g1 = b1.s_graph and g2 = b2.s_graph in
  let set = Graph_util.SS.of_list in
  Graph_util.merge_sequenced g1 g2
    ~reads1:(set (Sdfg.read_containers g1))
    ~writes1:(set (Sdfg.written_containers g1))
    ~reads2:(set (Sdfg.read_containers g2))
    ~writes2:(set (Sdfg.written_containers g2))

(* Normalization: a state sitting between a loop's exit and the next
   construct moves above the loop when it is independent of it (disjoint
   containers, no use of the induction symbol). This exposes adjacent-loop
   pairs separated by e.g. an accumulator initialization. *)
let hoist_independent_state (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let loops = Loop_analysis.find_loops sdfg in
  List.iter
    (fun (l : Loop_analysis.loop) ->
      if !changed then ()
      else
        match Sdfg.find_state sdfg l.exit_state with
        | Some x
          when (Sdfg.nodes x.s_graph) <> []
               && List.length (Sdfg.in_edges sdfg x.s_label) = 1
               && List.length (Sdfg.out_edges sdfg x.s_label) = 1 -> (
            let out = List.hd (Sdfg.out_edges sdfg x.s_label) in
            let body_states =
              List.filter
                (fun (s : Sdfg.state) -> List.mem s.s_label l.body)
                (Sdfg.states sdfg)
            in
            let body_containers =
              List.concat_map
                (fun (s : Sdfg.state) ->
                  Sdfg.read_containers s.s_graph
                  @ Sdfg.written_containers s.s_graph)
                body_states
            in
            let x_containers =
              Sdfg.read_containers x.s_graph @ Sdfg.written_containers x.s_graph
            in
            let independent =
              out.ie_cond = Bexpr.Bool true
              && List.for_all
                   (fun c -> not (List.mem c body_containers))
                   x_containers
              && (not (List.mem l.sym (Sdfg.graph_free_syms x.s_graph)))
              && (* keep allocation-charge states in place *)
              not
                (Hashtbl.fold
                   (fun _ (c : Sdfg.container) acc ->
                     acc || c.alloc_state = Some x.s_label)
                   sdfg.containers false)
            in
            if independent then begin
              (* P --ea--> G ... G --ex--> X --out--> H   becomes
                 P --ea'--> X --[ea assigns]--> G ... G --ex+out assigns--> H *)
              let entry = l.entry_edge in
              let entry_assigns = entry.ie_assign in
              Sdfg.set_istate_edges sdfg @@
                List.filter_map
                  (fun (e : Sdfg.istate_edge) ->
                    if e == entry then
                      Some { e with ie_dst = x.s_label; ie_assign = [] }
                    else if e == l.exit_edge then
                      Some { e with ie_dst = out.ie_dst;
                             ie_assign = e.ie_assign @ out.ie_assign }
                    else if e == out then None
                    else Some e)
                  (Sdfg.istate_edges sdfg);
              Sdfg.add_istate_edge sdfg ~assign:entry_assigns ~src:x.s_label
                ~dst:l.guard ();
              changed := true
            end)
        | _ -> ())
    loops;
  !changed

let run (sdfg : Sdfg.t) : bool =
  let changed = ref false in
  let progress = ref true in
  while !progress do
    progress := false;
    if hoist_independent_state sdfg then begin
      changed := true;
      progress := true
    end;
    let loops = Loop_analysis.find_loops sdfg in
    let adjacent =
      List.concat_map
        (fun (l1 : Loop_analysis.loop) ->
          List.filter_map
            (fun (l2 : Loop_analysis.loop) ->
              (* Adjacent either directly (l1's exit edge is l2's entry) or
                 through one empty pass-through state. *)
              if l1.exit_edge == l2.entry_edge then Some (l1, l2, None)
              else if
                String.equal l1.exit_state l2.entry_edge.ie_src
                && (match Sdfg.find_state sdfg l1.exit_state with
                   | Some s ->
                       (Sdfg.nodes s.s_graph) = []
                       && List.length (Sdfg.out_edges sdfg s.s_label) = 1
                       && List.length (Sdfg.in_edges sdfg s.s_label) = 1
                   | None -> false)
              then Some (l1, l2, Some l1.exit_state)
              else None)
            loops)
        loops
    in
    let candidate =
      List.find_opt
        (fun ((l1, l2, _) : Loop_analysis.loop * Loop_analysis.loop * _) ->
          match
            (Loop_analysis.single_state_body sdfg l1,
             Loop_analysis.single_state_body sdfg l2)
          with
          | Some b1, Some b2 -> can_fuse sdfg l1 l2 b1 b2
          | _ -> false)
        adjacent
    in
    match candidate with
    | Some (l1, l2, intermediate) ->
        let b1 = Option.get (Loop_analysis.single_state_body sdfg l1) in
        let b2 = Option.get (Loop_analysis.single_state_body sdfg l2) in
        rename_sym_in_graph b2.s_graph ~from_:l2.sym ~to_:l1.sym;
        merge_bodies b1 b2;
        (* Rewire: l1's back edge stays; l1's exit edge jumps to l2's exit
           target; l2's structure (guard, body, intermediate state) and its
           edges disappear. *)
        let removed_states =
          (match intermediate with Some x -> [ x ] | None -> [])
          @ [ l2.guard; b2.s_label ]
        in
        let new_exit = l2.exit_edge.ie_dst in
        (* Assignments riding on the removed edges (other loops'
           initializations, promoted scalars) must survive: fold them onto
           the surviving exit edge with sequential-merge semantics (an
           appended right-hand side reading an already-assigned symbol gets
           that expression inlined). The fused induction symbol's own
           updates are dropped. *)
        let drop_sym = List.filter (fun (sym, _) -> not (String.equal sym l2.sym)) in
        let seq_merge base extra =
          List.fold_left
            (fun acc (sym, ex) ->
              if List.mem_assoc sym acc then acc
              else
                let ex' = Expr.subst (fun sy -> List.assoc_opt sy acc) ex in
                acc @ [ (sym, ex') ])
            base extra
        in
        let exit_assigns =
          let base = drop_sym l1.exit_edge.ie_assign in
          let from_entry =
            if l1.exit_edge == l2.entry_edge then []
            else drop_sym l2.entry_edge.ie_assign
          in
          seq_merge (seq_merge base from_entry) (drop_sym l2.exit_edge.ie_assign)
        in
        Sdfg.set_states sdfg @@
          List.filter
            (fun (s : Sdfg.state) -> not (List.mem s.s_label removed_states))
            (Sdfg.states sdfg);
        Sdfg.set_istate_edges sdfg @@
          List.filter_map
            (fun (e : Sdfg.istate_edge) ->
              if e == l1.exit_edge then
                Some { e with ie_dst = new_exit; ie_assign = exit_assigns }
              else if
                List.mem e.ie_src removed_states
                || List.mem e.ie_dst removed_states
              then None
              else Some e)
            (Sdfg.istate_edges sdfg);
        changed := true;
        progress := true
    | None -> ()
  done;
  !changed
