(** State fusion — the core of SDFG simplification (§6.1).

    Two states connected by a single unconditional, assignment-free edge
    (where the first has exactly one successor and the second exactly one
    predecessor) merge into one dataflow graph. Conflicting accesses to the
    same container are sequenced by dependency edges between the {e event
    nodes} (the nodes whose execution actually performs the data movement),
    so the merged graph stays race-free — the paper's "data dependencies can
    be expressed in one acyclic graph without introducing data races".

    Fusing the converter's one-op-per-state output repeatedly enlarges pure
    dataflow regions, as in Fig 5d → §6.1. *)

open Dcir_sdfg

module S = Set.Make (String)

(* What fusion reads off a state's graph, computed at most once per state
   and run: a fused state's summary is the union of its parts' (the merge
   adds only memlet-free dependency edges). Each field is computed on
   first use, in the order the checks below need them. *)
type summary = {
  reads : S.t Lazy.t;
  writes : S.t Lazy.t;
  sym_reads : S.t Lazy.t;
}

let summarize (g : Sdfg.graph) : summary =
  {
    reads = lazy (S.of_list (Sdfg.read_containers g));
    writes = lazy (S.of_list (Sdfg.written_containers g));
    sym_reads = lazy (S.of_list (Graph_util.symbol_reads g));
  }

let union (a : summary) (b : summary) : summary =
  let u x y = lazy (S.union (Lazy.force x) (Lazy.force y)) in
  {
    reads = u a.reads b.reads;
    writes = u a.writes b.writes;
    sym_reads = u a.sym_reads b.sym_reads;
  }

(* Label -> (state, summary), for one [run]. *)
type cache = (string, Sdfg.state * summary) Hashtbl.t

let summary (cache : cache) (st : Sdfg.state) : summary =
  match Hashtbl.find_opt cache st.s_label with
  | Some (st', sum) when st' == st -> sum
  | _ ->
      let sum = summarize st.s_graph in
      Hashtbl.replace cache st.s_label (st, sum);
      sum

(* Fusion sequences conflicting accesses through dependency edges between
   event NODES — it cannot order a write against a *symbolic* read (a
   scalar-container pseudo-symbol inside a memlet subset, map range, or
   tasklet expression), because those reads happen at evaluation sites,
   not at nodes. Until scalar-to-symbol promotes such scalars, a state
   writing one must not be fused with a state reading it symbolically:
   the state boundary is the only thing ordering them. *)
let symbol_order_safe (a : summary) (b : summary) : bool =
  S.disjoint (Lazy.force a.writes) (Lazy.force b.sym_reads)
  && S.disjoint (Lazy.force b.writes) (Lazy.force a.sym_reads)

let fusable (cache : cache) (sdfg : Sdfg.t) (e : Sdfg.istate_edge) : bool =
  e.ie_cond = Dcir_symbolic.Bexpr.Bool true
  && e.ie_assign = []
  && (not (String.equal e.ie_src e.ie_dst))
  && List.length (Sdfg.out_edges sdfg e.ie_src) = 1
  && List.length (Sdfg.in_edges sdfg e.ie_dst) = 1
  && symbol_order_safe
       (summary cache (Option.get (Sdfg.find_state sdfg e.ie_src)))
       (summary cache (Option.get (Sdfg.find_state sdfg e.ie_dst)))

(* Merges [e]'s destination state into its source and returns the
   destination, which the caller drops from the state list. *)
let fuse_pair (cache : cache) (sdfg : Sdfg.t) (e : Sdfg.istate_edge) :
    Sdfg.state =
  let s1 = Option.get (Sdfg.find_state sdfg e.ie_src) in
  let s2 = Option.get (Sdfg.find_state sdfg e.ie_dst) in
  let sum1 = summary cache s1 and sum2 = summary cache s2 in
  Graph_util.merge_sequenced s1.s_graph s2.s_graph
    ~reads1:(Lazy.force sum1.reads) ~writes1:(Lazy.force sum1.writes)
    ~reads2:(Lazy.force sum2.reads) ~writes2:(Lazy.force sum2.writes);
  (* Rewire the state machine: s2's outgoing edges now leave s1. *)
  Sdfg.set_istate_edges sdfg @@
    List.filter_map
      (fun (x : Sdfg.istate_edge) ->
        if x == e then None
        else if String.equal x.ie_src s2.s_label then
          Some { x with ie_src = s1.s_label }
        else if String.equal x.ie_dst s2.s_label then
          Some { x with ie_dst = s1.s_label }
        else Some x)
      (Sdfg.istate_edges sdfg);
  Hashtbl.replace cache s1.s_label (s1, union sum1 sum2);
  (* Move alloc-state ownership to the fused state. *)
  Hashtbl.iter
    (fun _ (c : Sdfg.container) ->
      if c.alloc_state = Some s2.s_label then c.alloc_state <- Some s1.s_label)
    sdfg.containers;
  s2

(* Fuses the first fusable edge until none is left. After a fusion the
   scan resumes at the fused edge's index instead of the head, because a
   fusion never makes an earlier edge fusable:
   - the fused state only gains the second state's writes and symbol
     reads, so [symbol_order_safe] can only fail more often on its edges;
   - the second state's out-edges move to the fused state and keep their
     count;
   - only the fused edge entered the second state, so no in-degree drops.
   The fused-away states leave the state list once, at the end: no
   interstate edge names them after their fusion, so no lookup during the
   scan can reach them. *)
let run (sdfg : Sdfg.t) : bool =
  let cache : cache = Hashtbl.create 64 in
  let gone : (string, Sdfg.state) Hashtbl.t = Hashtbl.create 16 in
  let rec scan i = function
    | [] -> ()
    | e :: _ when fusable cache sdfg e ->
        let s2 = fuse_pair cache sdfg e in
        Hashtbl.add gone s2.s_label s2;
        scan i (List.filteri (fun j _ -> j >= i) (Sdfg.istate_edges sdfg))
    | _ :: rest -> scan (i + 1) rest
  in
  scan 0 (Sdfg.istate_edges sdfg);
  if Hashtbl.length gone > 0 then
    Sdfg.set_states sdfg
    @@ List.filter
         (fun (s : Sdfg.state) ->
           not (List.memq s (Hashtbl.find_all gone s.s_label)))
         (Sdfg.states sdfg);
  Hashtbl.length gone > 0
