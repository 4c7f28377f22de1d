(** Loop→map auto-parallelization (the control- to data-centric bridge).

    Counted guard-pattern loops (re-detected by {!Loop_analysis}) whose
    single-state bodies are provably free of cross-iteration dependences are
    rewritten into [MapN] scopes carrying a parallelization certificate
    ({!Sdfg.par_cert}); provable reductions route through the existing WCR
    machinery instead of being rejected. Every loop the driver inspects gets
    a report entry — either the certificate classes, or the concrete reason
    conversion was refused (the static race detector's witness). *)

open Dcir_support
open Dcir_symbolic
open Dcir_sdfg
module Loop_analysis = Dcir_dace_passes.Loop_analysis
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json

type outcome =
  | Converted of {
      co_state : string;  (** label of the new map state *)
      co_classes : (string * Sdfg.par_class) list;
    }
  | Rejected of string

type entry = { en_guard : string; en_sym : string; en_outcome : outcome }

type report = entry list

let class_to_string : Sdfg.par_class -> string = function
  | Sdfg.ParReadOnly -> "read-only"
  | Sdfg.ParDisjoint -> "disjoint"
  | Sdfg.ParReduction w -> "reduction(" ^ Sdfg.wcr_to_string w ^ ")"
  | Sdfg.ParPrivate -> "private"

let pp_entry (ppf : Format.formatter) (e : entry) : unit =
  match e.en_outcome with
  | Converted { co_state; co_classes } ->
      Fmt.pf ppf "loop '%s' (sym %s): converted to map state '%s' [%s]"
        e.en_guard e.en_sym co_state
        (String.concat ", "
           (List.map
              (fun (n, c) -> n ^ ":" ^ class_to_string c)
              co_classes))
  | Rejected msg ->
      Fmt.pf ppf "loop '%s' (sym %s): not parallelized — %s" e.en_guard
        e.en_sym msg

let pp_report (ppf : Format.formatter) (r : report) : unit =
  Fmt.pf ppf "@[<v>%a@]" (Fmt.list pp_entry) r

(** One diagnostic per rejected loop — the conflict report. *)
let diags (r : report) : Diagnostics.t list =
  List.filter_map
    (fun e ->
      match e.en_outcome with
      | Rejected msg ->
          Some
            (Diagnostics.make ~code:"autopar-conflict" ~phase:Diagnostics.DataOpt
               (Fmt.str "loop at '%s' (sym %s): %s" e.en_guard e.en_sym msg))
      | Converted _ -> None)
    r

(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Normalize the guard condition + constant step into an ascending map
   range, plus the induction symbol's value after the loop
   (init + max(trip,0)*step — correct even for zero trips). Descending
   unit-stride loops are reversed; reversal only reorders iterations the
   dependence test has already proven independent (reductions reassociate
   within the oracle's tolerance). *)
let bounds_of (l : Loop_analysis.loop) : (Range.dim * Expr.t, string) result =
  match Expr.is_constant l.step with
  | None -> Error "step is not a compile-time constant"
  | Some 0 -> Error "zero step"
  | Some c -> (
      match l.cond with
      | Bexpr.Cmp (op, Expr.Sym s, ub)
        when String.equal s l.sym
             && not (List.mem l.sym (Expr.free_syms ub)) -> (
          match Loop_analysis.trip_count l with
          | None -> Error "trip count not derivable from guard condition"
          | Some trip -> (
              let final =
                Expr.add l.init
                  (Expr.mul (Expr.max_ trip Expr.zero) (Expr.int c))
              in
              match op with
              | Bexpr.Lt when c > 0 ->
                  Ok
                    ( Range.dim ~step:(Expr.int c) l.init
                        (Expr.sub ub Expr.one),
                      final )
              | Bexpr.Le when c > 0 ->
                  Ok (Range.dim ~step:(Expr.int c) l.init ub, final)
              | Bexpr.Gt when c = -1 ->
                  Ok (Range.dim (Expr.add ub Expr.one) l.init, final)
              | Bexpr.Ge when c = -1 -> Ok (Range.dim ub l.init, final)
              | (Bexpr.Gt | Bexpr.Ge) when c < -1 ->
                  Error "descending loop with |step| > 1"
              | _ -> Error "guard condition incompatible with step direction"))
      | _ -> Error "unsupported guard condition shape")

(* Subset reasoning is defeated by code it cannot see into: opaque (MLIR)
   tasklets, and tasklets taking whole arrays through connectors (indirect
   indexing). *)
let rec check_tasklets (g : Sdfg.graph) : (unit, string) result =
  List.fold_left
    (fun acc (n : Sdfg.node) ->
      let* () = acc in
      match n.kind with
      | Sdfg.TaskletN ({ code = Sdfg.Opaque _; _ } as t) ->
          Error
            (Printf.sprintf "tasklet '%s' is opaque to dependence analysis"
               t.tname)
      | Sdfg.TaskletN ({ code = Sdfg.Native _; _ } as t) ->
          if Interp.tasklet_array_conns t <> [] then
            Error
              (Printf.sprintf
                 "tasklet '%s' indexes an array connector indirectly" t.tname)
          else Ok ()
      | Sdfg.MapN mn -> check_tasklets mn.m_body
      | Sdfg.Access _ -> Ok ())
    (Ok ()) (Sdfg.nodes g)

(* The loop body as a linear chain of states: continue-edge destination,
   through unconditional single-successor states, to the back-edge source.
   Lowered loop nests produce such chains — empty pre/post states around
   the one state that computes (or around an already-converted inner map
   state). *)
let chain_of (sdfg : Sdfg.t) (l : Loop_analysis.loop) :
    (Sdfg.state list, string) result =
  let limit = List.length l.body in
  let rec go (st : Sdfg.state) acc n =
    if n > limit then Error "loop body is not a linear chain"
    else if not (List.mem st.Sdfg.s_label l.body) then
      Error "loop body control flow leaves the loop"
    else
      match Sdfg.out_edges sdfg st.s_label with
      | [ e ] ->
          if e == l.back_edge then Ok (List.rev (st :: acc))
          else if Bexpr.decide e.ie_cond <> Some true then
            Error "conditional control flow inside the loop body"
          else if
            not
              (match Sdfg.in_edges sdfg e.ie_dst with
              | [ e' ] -> e' == e
              | _ -> false)
          then Error "loop body state has extra incoming edges"
          else (
            match Sdfg.find_state sdfg e.ie_dst with
            | Some nxt -> go nxt (st :: acc) (n + 1)
            | None -> Error "dangling edge inside the loop body")
      | _ -> Error "loop body is not a linear chain"
  in
  match Sdfg.find_state sdfg l.continue_edge.ie_dst with
  | None -> Error "dangling continue edge"
  | Some first -> (
      match Sdfg.in_edges sdfg first.s_label with
      | [ e ] when e == l.continue_edge -> go first [] 0
      | _ -> Error "loop body entry has extra incoming edges")

(* Is symbol [s] read anywhere that SURVIVES the conversion: states outside
   the loop, the future map state itself (range bounds, final value, body
   free symbols — minus the map parameter), surviving interstate edges
   (including the rebuilt entry/exit edge payloads), the return expression,
   container shapes? Assignment left-hand sides don't count as reads. The
   loop's own edges and the body chain's internal edges are about to be
   destroyed, so their reads don't keep a symbol alive. *)
let observable_after (sdfg : Sdfg.t) (l : Loop_analysis.loop)
    ~(chain : Sdfg.state list) ~(chain_edges : Sdfg.istate_edge list)
    ~(dim : Range.dim) ~(final : Expr.t) ~(body_graph : Sdfg.graph)
    (s : string) : bool =
  let chain_labels =
    List.map (fun (st : Sdfg.state) -> st.Sdfg.s_label) chain
  in
  let dead (e : Sdfg.istate_edge) =
    e == l.entry_edge || e == l.back_edge || e == l.continue_edge
    || e == l.exit_edge
    || List.exists (fun ce -> ce == e) chain_edges
  in
  let reads_assigns assigns =
    List.exists (fun (_, rhs) -> List.mem s (Expr.free_syms rhs)) assigns
  in
  List.exists
    (fun (st : Sdfg.state) ->
      (not (String.equal st.s_label l.guard))
      && (not (List.mem st.s_label chain_labels))
      && List.mem s (Sdfg.graph_free_syms st.s_graph))
    (Sdfg.states sdfg)
  || List.mem s (Range.free_syms [ dim ])
  || List.mem s (Expr.free_syms final)
  || ((not (String.equal s l.sym))
     && List.mem s (Sdfg.graph_free_syms body_graph))
  || List.exists
       (fun (e : Sdfg.istate_edge) ->
         (not (dead e))
         && (List.mem s (Bexpr.free_syms e.ie_cond)
            || reads_assigns e.ie_assign))
       (Sdfg.istate_edges sdfg)
  || List.mem s (Bexpr.free_syms l.entry_edge.ie_cond)
  || reads_assigns l.entry_edge.ie_assign
  || reads_assigns l.exit_edge.ie_assign
  || (match sdfg.return_expr with
     | Some e -> List.mem s (Expr.free_syms e)
     | None -> false)
  || Hashtbl.fold
       (fun _ (c : Sdfg.container) acc ->
         acc
         || List.exists (fun sh -> List.mem s (Expr.free_syms sh)) c.shape)
       sdfg.containers false

(* Is container [name] live outside the loop body chain? *)
let escapes (sdfg : Sdfg.t) ~(chain_labels : string list) (name : string) :
    bool =
  List.exists
    (fun (st : Sdfg.state) ->
      (not (List.mem st.s_label chain_labels))
      && (List.mem name (Sdfg.read_containers st.s_graph)
         || List.mem name (Sdfg.written_containers st.s_graph)
         || List.mem name (Sdfg.graph_free_syms st.s_graph)))
    (Sdfg.states sdfg)
  || List.exists
       (fun (e : Sdfg.istate_edge) ->
         List.mem name (Bexpr.free_syms e.ie_cond)
         || List.exists
              (fun (s, rhs) ->
                String.equal s name || List.mem name (Expr.free_syms rhs))
              e.ie_assign)
       (Sdfg.istate_edges sdfg)
  || (match sdfg.return_expr with
     | Some e -> List.mem name (Expr.free_syms e)
     | None -> false)
  || (match sdfg.return_scalar with
     | Some s -> String.equal s name
     | None -> false)
  || Hashtbl.fold
       (fun _ (c : Sdfg.container) acc ->
         acc
         || List.exists (fun sh -> List.mem name (Expr.free_syms sh)) c.shape)
       sdfg.containers false

(* Fuse the dataflow graphs of two states executed back-to-back into one
   graph, preserving sequential memory semantics. For every container both
   graphs touch (when at least one side writes it), dependence edges (no
   memlet) run from [g1]'s access nodes of the container and their direct
   consumers — everything observing the pre-[g2] value — to [g2]'s access
   nodes and the producers feeding its writes. Every topological execution
   respects those edges, so [g2]'s reads see [g1]'s final values and [g2]'s
   writes land after every [g1]-side use. The edges all point g1→g2, so the
   fused graph stays acyclic.

   Only uncertified nested maps are rejected: their bodies' accesses are
   not summarized by external edges, so node-level ordering can't reach
   them. *)
let fuse_graphs (g1 : Sdfg.graph) (g2 : Sdfg.graph) :
    (Sdfg.graph, string) result =
  let certified g =
    List.for_all
      (fun (n : Sdfg.node) ->
        match n.kind with
        | Sdfg.MapN { m_par = None; _ } -> false
        | _ -> true)
      (Sdfg.nodes g)
  in
  let* () =
    if certified g1 && certified g2 then Ok ()
    else Error "uncertified map blocks body-state fusion"
  in
  let ns1 = Sdfg.nodes g1
  and es1 = Sdfg.edges g1
  and ns2 = Sdfg.nodes g2
  and es2 = Sdfg.edges g2 in
  let accs ns =
    List.filter_map
      (fun (n : Sdfg.node) ->
        match n.kind with Sdfg.Access c -> Some (c, n) | _ -> None)
      ns
  in
  let is_write es (n : Sdfg.node) =
    List.exists
      (fun (e : Sdfg.edge) -> e.e_dst = n.nid && e.e_memlet <> None)
      es
  in
  let acc1 = accs ns1 and acc2 = accs ns2 in
  let names =
    List.sort_uniq String.compare (List.map (fun (c, _) -> c) acc2)
  in
  let seen : (int * int, unit) Hashtbl.t = Hashtbl.create 8 in
  let deps = ref [] in
  let add_dep b a =
    if b <> a && not (Hashtbl.mem seen (b, a)) then begin
      Hashtbl.replace seen (b, a) ();
      deps := (b, a) :: !deps
    end
  in
  List.iter
    (fun c ->
      let t1 = List.filter (fun (c', _) -> String.equal c c') acc1 in
      let t2 = List.filter (fun (c', _) -> String.equal c c') acc2 in
      let writes_somewhere =
        List.exists (fun (_, n) -> is_write es1 n) t1
        || List.exists (fun (_, n) -> is_write es2 n) t2
      in
      if t1 <> [] && writes_somewhere then begin
        (* g1 side: the access nodes and their direct consumers. *)
        let before =
          List.concat_map
            (fun ((_, n) : string * Sdfg.node) ->
              n.nid
              :: List.filter_map
                   (fun (e : Sdfg.edge) ->
                     if e.e_src = n.nid then Some e.e_dst else None)
                   es1)
            t1
        in
        (* g2 side: the access nodes and the producers feeding its writes. *)
        let after =
          List.concat_map
            (fun ((_, n) : string * Sdfg.node) ->
              n.nid
              :: List.filter_map
                   (fun (e : Sdfg.edge) ->
                     if e.e_dst = n.nid && e.e_memlet <> None then
                       Some e.e_src
                     else None)
                   es2)
            t2
        in
        List.iter (fun b -> List.iter (fun a -> add_dep b a) after) before
      end)
    names;
  let g = Sdfg.new_graph () in
  Sdfg.set_nodes g (ns1 @ ns2);
  Sdfg.set_edges g
    (es1 @ es2
    @ List.rev_map
        (fun (src, dst) ->
          {
            Sdfg.e_src = src;
            e_src_conn = None;
            e_dst = dst;
            e_dst_conn = None;
            e_memlet = None;
          })
        !deps);
  Ok g

(* Containers certified [ParPrivate] one nest level down have no external
   edges (they're invisible to the outer dependence test) but still live in
   the shared buffer table — an outer parallel map must re-privatize them or
   its chunks would race. A container private per inner iteration is
   written-before-read per outer iteration too, so the pass-through is
   sound. *)
let rec nested_privates (g : Sdfg.graph) : (string * Sdfg.par_class) list =
  List.concat_map
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.MapN { m_par = Some c; m_body; _ } ->
          List.filter (fun (_, cl) -> cl = Sdfg.ParPrivate) c.pc_classes
          @ nested_privates m_body
      | Sdfg.MapN { m_par = None; m_body; _ } -> nested_privates m_body
      | Sdfg.Access _ | Sdfg.TaskletN _ -> [])
    (Sdfg.nodes g)

let map_state_label (sdfg : Sdfg.t) (base : string) : string =
  let rec go i =
    let cand = if i = 0 then base ^ "_map" else Printf.sprintf "%s_map%d" base i in
    if Sdfg.find_state sdfg cand = None then cand else go (i + 1)
  in
  go 0

(* Edges the conversion destroys — the back edge, the guard->body edge and
   the chain's internal edges — may carry assigns besides the induction
   update: typically the init and final-value assigns a previously converted
   inner loop left behind. They ran once per iteration; dropping them is
   sound only when nothing surviving the conversion ever reads the symbol.
   Anything observable forces rejection: moving the assign out of the loop
   would run it even for zero-trip loops, which the original never did, and
   keeping it per-iteration has no home in a map. *)
let check_dead_assigns ~(observable : string -> bool)
    (l : Loop_analysis.loop) ~(where : string)
    (assigns : (string * Expr.t) list) : (unit, string) result =
  List.fold_left
    (fun acc (s, _rhs) ->
      let* () = acc in
      if String.equal s l.sym then
        if String.equal where "back edge" then Ok ()
        else
          Error
            (Printf.sprintf "induction symbol '%s' assigned on the %s" l.sym
               where)
      else if observable s then
        Error
          (Printf.sprintf
             "loop-carried scalar '%s' is assigned on the %s and read \
              elsewhere"
             s where)
      else Ok ())
    (Ok ()) assigns

let check_exit_assigns (l : Loop_analysis.loop) : (unit, string) result =
  if
    List.exists
      (fun (_, rhs) -> List.mem l.sym (Expr.free_syms rhs))
      l.exit_edge.ie_assign
  then
    Error
      (Printf.sprintf "exit-edge assignment reads induction symbol '%s'"
         l.sym)
  else Ok ()

(* ------------------------------------------------------------------ *)

(** Attempt to convert one loop. On success the SDFG is rewritten in place
    (guard + body states replaced by a single map state) and the new state
    label plus certificate classes are returned; on failure the SDFG is
    untouched and the error carries the rejection reason. *)
let try_convert (sdfg : Sdfg.t) (l : Loop_analysis.loop) :
    (string * (string * Sdfg.par_class) list, string) result =
  let* chain = chain_of sdfg l in
  let chain_labels =
    List.map (fun (st : Sdfg.state) -> st.Sdfg.s_label) chain
  in
  let chain_edges =
    (* Every chain state except the last has exactly one out-edge (verified
       by [chain_of]); the last state's out-edge is the back edge. *)
    List.concat_map
      (fun (st : Sdfg.state) ->
        List.filter
          (fun (e : Sdfg.istate_edge) -> not (e == l.back_edge))
          (Sdfg.out_edges sdfg st.s_label))
      chain
  in
  (* The chain's computing states fuse, in order, into the map body; empty
     shells (the lowered nest's pre/post states) contribute nothing. *)
  let* body_graph =
    match
      List.filter
        (fun (st : Sdfg.state) -> Sdfg.nodes st.s_graph <> [])
        chain
    with
    | [] -> Ok (List.hd chain).s_graph
    | st :: rest ->
        List.fold_left
          (fun acc (st' : Sdfg.state) ->
            let* g = acc in
            fuse_graphs g st'.s_graph)
          (Ok st.Sdfg.s_graph) rest
  in
  let* guard_state =
    match Sdfg.find_state sdfg l.guard with
    | Some s -> Ok s
    | None -> Error "guard state not found"
  in
  let* () =
    if Sdfg.nodes guard_state.s_graph = [] then Ok ()
    else Error "guard state performs computation"
  in
  let* () =
    if
      String.equal sdfg.start_state l.guard
      || List.mem sdfg.start_state chain_labels
    then Error "loop guard is the start state"
    else Ok ()
  in
  let* () =
    let ins = Sdfg.in_edges sdfg l.guard in
    if
      List.length ins = 2
      && List.for_all (fun e -> e == l.entry_edge || e == l.back_edge) ins
    then Ok ()
    else Error "guard has extra incoming edges"
  in
  let* dim, final = bounds_of l in
  let observable =
    observable_after sdfg l ~chain ~chain_edges ~dim ~final ~body_graph
  in
  let* () =
    check_dead_assigns ~observable l ~where:"back edge" l.back_edge.ie_assign
  in
  let* () =
    check_dead_assigns ~observable l ~where:"guard->body edge"
      l.continue_edge.ie_assign
  in
  let* () =
    List.fold_left
      (fun acc (e : Sdfg.istate_edge) ->
        let* () = acc in
        check_dead_assigns ~observable l ~where:"loop body edge" e.ie_assign)
      (Ok ()) chain_edges
  in
  let* () = check_exit_assigns l in
  let* () = check_tasklets body_graph in
  let* () =
    (* Range and final-value expressions are evaluated once, in the map
       state; a body that writes a scalar container they mention would have
       made them iteration-dependent. *)
    let bound_syms =
      Range.free_syms [ dim ] @ Expr.free_syms final @ Expr.free_syms l.init
    in
    let written = Sdfg.written_containers body_graph in
    match List.find_opt (fun s -> List.mem s written) bound_syms with
    | Some s ->
        Error
          (Printf.sprintf "loop bound reads container '%s' written by the body"
             s)
    | None -> Ok ()
  in
  let all = Dependence.accesses sdfg body_graph in
  let names =
    List.sort_uniq String.compare
      (List.map (fun (a : Dependence.access) -> a.ac_container) all)
  in
  let classes, conflicts =
    List.fold_left
      (fun (cls, cfl) name ->
        match
          Dependence.classify sdfg ~sym:l.sym ~body:body_graph
            ~escapes:(escapes sdfg ~chain_labels)
            all name
        with
        | Dependence.Independent c -> ((name, c) :: cls, cfl)
        | Dependence.Dependent reason -> (cls, reason :: cfl))
      ([], []) names
  in
  let* classes =
    match conflicts with
    | [] -> Ok (List.rev classes)
    | cs -> Error (String.concat "; " (List.rev cs))
  in
  let classes =
    classes
    @ List.filter
        (fun (n, _) -> not (List.mem_assoc n classes))
        (List.sort_uniq compare (nested_privates body_graph))
  in
  (* All checks passed — rewrite. *)
  let lbl = map_state_label sdfg l.guard in
  let ms = Sdfg.add_state sdfg lbl in
  let cert = { Sdfg.pc_sym = l.sym; pc_classes = classes } in
  let map_node =
    Sdfg.add_node ms.s_graph
      (Sdfg.MapN
         {
           m_params = [ l.sym ];
           m_ranges = [ dim ];
           m_body = body_graph;
           m_par = Some cert;
         })
  in
  (* Aggregated external memlets: one read and/or write access node per
     non-private container, with the body subsets widened over the map
     range. Execution ignores these edges; they summarize the scope for
     outer-loop analysis and validation. *)
  let widen s = Range.widen ~sym:l.sym ~lo:dim.lo ~hi:dim.hi s in
  List.iter
    (fun (name, cls) ->
      if cls <> Sdfg.ParPrivate then begin
        let mine =
          List.filter
            (fun (a : Dependence.access) -> String.equal a.ac_container name)
            all
        in
        let union_of subs =
          match List.map widen subs with
          | [] -> None
          | s0 :: rest ->
              Some
                (try List.fold_left Range.union s0 rest
                 with Invalid_argument _ -> Dependence.full_subset sdfg name)
        in
        let reads, writes = List.partition (fun a -> not a.Dependence.ac_write) mine in
        (match union_of (List.map (fun a -> a.Dependence.ac_subset) reads) with
        | Some subset ->
            let acc = Sdfg.add_node ms.s_graph (Sdfg.Access name) in
            ignore
              (Sdfg.add_edge ms.s_graph acc map_node
                 ~memlet:{ Sdfg.data = name; subset; wcr = None; other = None })
        | None -> ());
        match union_of (List.map (fun a -> a.Dependence.ac_subset) writes) with
        | Some subset ->
            let wcr =
              match writes with
              | { Dependence.ac_wcr = Some w; _ } :: rest
                when List.for_all (fun a -> a.Dependence.ac_wcr = Some w) rest
                ->
                  Some w
              | _ -> None
            in
            let acc = Sdfg.add_node ms.s_graph (Sdfg.Access name) in
            ignore
              (Sdfg.add_edge ms.s_graph map_node acc
                 ~memlet:{ Sdfg.data = name; subset; wcr; other = None })
        | None -> ()
      end)
    classes;
  (* Containers whose charged allocation was pinned to a vanishing state
     follow their code into the map state. *)
  Hashtbl.iter
    (fun _ (c : Sdfg.container) ->
      match c.alloc_state with
      | Some s when String.equal s l.guard || List.mem s chain_labels ->
          c.alloc_state <- Some lbl
      | _ -> ())
    sdfg.containers;
  (* Replace the loop edges (the four structural ones plus the chain's
     internal edges, whose assigns were proven dead): pred -> map state
     (entry assigns kept verbatim) and map state -> exit, the latter
     committing the induction symbol's final value before the original exit
     assigns (whose RHS were checked not to read it). *)
  let kept =
    List.filter
      (fun e ->
        not
          (e == l.entry_edge || e == l.back_edge || e == l.continue_edge
          || e == l.exit_edge
          || List.exists (fun ce -> ce == e) chain_edges))
      (Sdfg.istate_edges sdfg)
  in
  let to_map =
    {
      Sdfg.ie_src = l.entry_edge.ie_src;
      ie_dst = lbl;
      ie_cond = l.entry_edge.ie_cond;
      ie_assign = l.entry_edge.ie_assign;
    }
  in
  let to_exit =
    {
      Sdfg.ie_src = lbl;
      ie_dst = l.exit_state;
      ie_cond = Bexpr.true_;
      ie_assign = (l.sym, final) :: l.exit_edge.ie_assign;
    }
  in
  Sdfg.set_istate_edges sdfg (kept @ [ to_map; to_exit ]);
  Sdfg.set_states sdfg
    (List.filter
       (fun (s : Sdfg.state) ->
         not
           (String.equal s.s_label l.guard || List.mem s.s_label chain_labels))
       (Sdfg.states sdfg));
  Ok (lbl, classes)

(** Convert loops to fixpoint, innermost first (an outer loop only becomes
    single-state — and its back-edge assigns analyzable — after its inner
    loop has been converted). Each inspected loop gets a report entry; on
    repeat inspections the latest verdict wins, so an outer loop rejected in
    round 1 and converted in round 2 reports as converted. *)
let parallelize ?(max_rounds = 32) (sdfg : Sdfg.t) : report =
  let entries : (string, entry) Hashtbl.t = Hashtbl.create 8 in
  let order = ref [] in
  let record (e : entry) =
    if not (Hashtbl.mem entries e.en_guard) then
      order := e.en_guard :: !order;
    Hashtbl.replace entries e.en_guard e
  in
  let rec round n =
    if n < max_rounds then begin
      let loops =
        Loop_analysis.find_loops sdfg
        |> List.sort (fun (a : Loop_analysis.loop) (b : Loop_analysis.loop) ->
               compare (List.length a.body) (List.length b.body))
      in
      let progressed =
        List.fold_left
          (fun progressed (l : Loop_analysis.loop) ->
            if progressed then progressed
            else
              match try_convert sdfg l with
              | Ok (lbl, classes) ->
                  record
                    {
                      en_guard = l.guard;
                      en_sym = l.sym;
                      en_outcome =
                        Converted { co_state = lbl; co_classes = classes };
                    };
                  true
              | Error msg ->
                  record
                    {
                      en_guard = l.guard;
                      en_sym = l.sym;
                      en_outcome = Rejected msg;
                    };
                  false)
          false loops
      in
      if progressed then round (n + 1)
    end
  in
  round 0;
  let final = List.rev_map (Hashtbl.find entries) !order in
  (* Provenance: one event per final verdict (post-dedup, so an outer loop
     rejected early but converted later reports only its certification).
     A refusal always carries the race detector's witness. *)
  List.iter
    (fun (e : entry) ->
      match e.en_outcome with
      | Converted { co_state; co_classes } ->
          Events.emit ~code:"APAR-CERT"
            [
              ("loop", Json.Str e.en_guard);
              ("sym", Json.Str e.en_sym);
              ("state", Json.Str co_state);
              ( "classes",
                Json.Str
                  (String.concat ", "
                     (List.map
                        (fun (n, c) -> n ^ ":" ^ class_to_string c)
                        co_classes)) );
            ]
      | Rejected msg ->
          Events.emit ~code:"APAR-REFUSE"
            [
              ("loop", Json.Str e.en_guard);
              ("sym", Json.Str e.en_sym);
              ("witness", Json.Str msg);
            ])
    final;
  final
