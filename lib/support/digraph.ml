(** A small directed-graph toolkit over integer node ids.

    Both IRs in this repository are graphs: the SDFG state machine and each
    state's dataflow multigraph, and the dominator analysis used when raising
    structured control flow from state machines. This module provides the
    shared algorithms: topological sort, reverse postorder, reachability,
    and immediate dominators (Cooper-Harvey-Kennedy). Nodes are dense
    [0 .. n-1] integers; callers map their own node types to indices. *)

type t = {
  n : int;
  succ : int list array;
  pred : int list array;
}

let create ~(n : int) (edges : (int * int) list) : t =
  let succ = Array.make n [] and pred = Array.make n [] in
  List.iter
    (fun (u, v) ->
      assert (u >= 0 && u < n && v >= 0 && v < n);
      succ.(u) <- v :: succ.(u);
      pred.(v) <- u :: pred.(v))
    edges;
  (* Reverse so adjacency preserves insertion order; determinism matters for
     reproducible pass output. *)
  Array.iteri (fun i l -> succ.(i) <- List.rev l) succ;
  Array.iteri (fun i l -> pred.(i) <- List.rev l) pred;
  { n; succ; pred }

let succ g u = g.succ.(u)
let pred g u = g.pred.(u)

(** [topo_sort g] returns nodes in a topological order. Cycles raise
    [Invalid_argument]; state machines may be cyclic, so callers that accept
    cycles should use [reverse_postorder] instead. *)
let topo_sort (g : t) : int list =
  let indeg = Array.make g.n 0 in
  Array.iter (List.iter (fun v -> indeg.(v) <- indeg.(v) + 1)) g.succ;
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = ref [] and seen = ref 0 in
  while not (Queue.is_empty queue) do
    let u = Queue.pop queue in
    incr seen;
    order := u :: !order;
    List.iter
      (fun v ->
        indeg.(v) <- indeg.(v) - 1;
        if indeg.(v) = 0 then Queue.add v queue)
      g.succ.(u)
  done;
  if !seen <> g.n then invalid_arg "Digraph.topo_sort: graph has a cycle";
  List.rev !order

(** Depth-first reverse postorder from [root]; unreachable nodes are omitted.
    This is the canonical iteration order for dataflow over possibly-cyclic
    control-flow graphs. *)
let reverse_postorder (g : t) ~(root : int) : int list =
  let visited = Array.make g.n false in
  let post = ref [] in
  let rec dfs u =
    if not visited.(u) then begin
      visited.(u) <- true;
      List.iter dfs g.succ.(u);
      post := u :: !post
    end
  in
  dfs root;
  !post

(** Nodes reachable from [roots] following successor edges. *)
let reachable (g : t) ~(roots : int list) : bool array =
  let visited = Array.make g.n false in
  let rec dfs u =
    if not visited.(u) then begin
      visited.(u) <- true;
      List.iter dfs g.succ.(u)
    end
  in
  List.iter dfs roots;
  visited

(** Immediate dominators for all nodes reachable from [root], using the
    Cooper-Harvey-Kennedy iterative algorithm. [idom.(root) = root];
    unreachable nodes map to [-1]. *)
let idom (g : t) ~(root : int) : int array =
  let rpo = reverse_postorder g ~root in
  let rpo_num = Array.make g.n (-1) in
  List.iteri (fun i u -> rpo_num.(u) <- i) rpo;
  let doms = Array.make g.n (-1) in
  doms.(root) <- root;
  let intersect b1 b2 =
    let f1 = ref b1 and f2 = ref b2 in
    while !f1 <> !f2 do
      while rpo_num.(!f1) > rpo_num.(!f2) do
        f1 := doms.(!f1)
      done;
      while rpo_num.(!f2) > rpo_num.(!f1) do
        f2 := doms.(!f2)
      done
    done;
    !f1
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun b ->
        if b <> root then begin
          let processed_preds =
            List.filter (fun p -> doms.(p) <> -1 && rpo_num.(p) >= 0) g.pred.(b)
          in
          match processed_preds with
          | [] -> ()
          | first :: rest ->
              let new_idom = List.fold_left intersect first rest in
              if doms.(b) <> new_idom then begin
                doms.(b) <- new_idom;
                changed := true
              end
        end)
      rpo
  done;
  doms
