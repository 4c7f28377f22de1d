(** Lowering from SDFGs to flat bytecode programs.

    The lowering walks each state the way the tree walker executes it —
    allocation charges, then the dataflow graph in topological order,
    then the interstate edges — and emits a single flat code array with
    preallocated frame slots:

    - tasklet connector slots and assignment results get fixed indices
      in the frame's value array (no per-execution [Array.make]);
    - serial map nests flatten into register loops ([LoopInit] /
      [LoopHead] / [LoopIter] / [LoopNext]);
    - interstate conditions are pre-evaluated into branch targets: each
      state's edge tests chain via [if_false] pcs and taken edges [Jmp]
      straight to the destination state's entry pc;
    - every symbol name resolves to an id of the run's symbol table, and
      every tasklet output a value edge reads to a slot of the frame's
      [lasts] array, so execution hashes no names.

    States lower eagerly, but the tree walker only inspects a dataflow
    graph when execution reaches it, so a malformed graph (e.g. a cycle)
    must not fail the lowering: its exception becomes a [Reraise]
    instruction, executed exactly where the tree walker would raise. *)

module Interp = Dcir_sdfg.Interp
module Sdfg = Dcir_sdfg.Sdfg
module Texpr = Dcir_sdfg.Texpr
module Range = Dcir_symbolic.Range
module Symtab = Dcir_sdfg.Symtab
open Isa

(* ------------------------------------------------------------------ *)
(* Code builder: reversed instruction list + patch thunks resolved once
   every pc is known. *)

type builder = {
  syms : Symtab.t;
      (** interns symbol names; shared by a program and its nested
          [ParMap] bodies, so a chunk's copy of the run's table keeps the
          ids *)
  lasts : (string, int) Hashtbl.t;  (** "nid:conn" -> [lasts] slot *)
  mutable nlasts : int;
  mutable rev : instr list;
  mutable len : int;
  mutable patches : (int * (unit -> instr)) list;
  mutable nvals : int;
  mutable nints : int;
  mutable nsaves : int;
  cslots : (string, int) Hashtbl.t;
  mutable ncslots : int;
}

let new_builder (syms : Symtab.t) : builder =
  {
    syms;
    lasts = Hashtbl.create 8;
    nlasts = 0;
    rev = [];
    len = 0;
    patches = [];
    nvals = 0;
    nints = 0;
    nsaves = 0;
    cslots = Hashtbl.create 16;
    ncslots = 0;
  }

let emit (b : builder) (i : instr) : int =
  let pc = b.len in
  b.rev <- i :: b.rev;
  b.len <- pc + 1;
  pc

(* Reserve a pc whose instruction is computed after layout. *)
let emit_patch (b : builder) (f : unit -> instr) : int =
  let pc = emit b Halt in
  b.patches <- (pc, f) :: b.patches;
  pc

let alloc_val (b : builder) : int =
  let s = b.nvals in
  b.nvals <- s + 1;
  s

let alloc_vals (b : builder) (n : int) : int =
  let s = b.nvals in
  b.nvals <- s + n;
  s

let alloc_int (b : builder) : int =
  let s = b.nints in
  b.nints <- s + 1;
  s

let alloc_ints (b : builder) (n : int) : int =
  let s = b.nints in
  b.nints <- s + n;
  s

let alloc_save (b : builder) : int =
  let s = b.nsaves in
  b.nsaves <- s + 1;
  s

let sym (b : builder) (name : string) : int = Symtab.intern b.syms name

(* One [lasts] slot per tasklet output key per program: every write and
   read of "nid:conn" in one frame meets in the same slot. *)
let last_slot (b : builder) (key : string) : int =
  match Hashtbl.find_opt b.lasts key with
  | Some s -> s
  | None ->
      let s = b.nlasts in
      b.nlasts <- s + 1;
      Hashtbl.replace b.lasts key s;
      s

(* One frame-cached (buffer, dims) slot per container name per program. *)
let cslot (b : builder) (name : string) : int =
  match Hashtbl.find_opt b.cslots name with
  | Some s -> s
  | None ->
      let s = b.ncslots in
      b.ncslots <- s + 1;
      Hashtbl.replace b.cslots name s;
      s

let finish (b : builder) (sdfg : Sdfg.t) : program =
  let code = Array.of_list (List.rev b.rev) in
  List.iter (fun (pc, f) -> code.(pc) <- f ()) b.patches;
  {
    p_sdfg = sdfg;
    p_code = code;
    p_nvals = b.nvals;
    p_nints = b.nints;
    p_nsaves = b.nsaves;
    p_ncslots = b.ncslots;
    p_nlasts = b.nlasts;
    p_syms = Symtab.names b.syms;
  }

(* ------------------------------------------------------------------ *)
(* Tasklets. Mirrors [Interp.exec_tasklet_body]: bindings accumulate in
   in-edge order, List.assoc picks the first occurrence, shadowed
   scalar fills still execute (and charge). The binding environment
   holds absolute frame-slot indices, so [Closures.compile_texpr] bodies
   evaluate directly over the frame's value array. *)

let lower_index_exprs (b : builder) (subset : Range.t) : iexpr array =
  Array.of_list
    (List.map (fun (d : Range.dim) -> Closures.compile_expr (sym b) d.lo) subset)

let lower_tasklet (b : builder) (g : Sdfg.graph) (n : Sdfg.node)
    (t : Sdfg.tasklet) : unit =
  let array_conns = Interp.tasklet_array_conns t in
  let benv = ref [] in
  List.iter
    (fun (e : Sdfg.edge) ->
      match (e.e_dst_conn, e.e_memlet) with
      | Some conn, Some m ->
          if List.mem conn array_conns then
            benv := (conn, Closures.CBArray m.data) :: !benv
          else begin
            let slot = alloc_val b in
            let i =
              if List.for_all Range.is_index m.subset then
                LoadIdx
                  {
                    dst = slot;
                    data = m.data;
                    cslot = cslot b m.data;
                    idxs = lower_index_exprs b m.subset;
                  }
              else
                TrapNow
                  (Printf.sprintf
                     "tasklet '%s': scalar connector '%s' with non-index \
                      subset %s"
                     t.tname conn
                     (Range.to_string m.subset))
            in
            ignore (emit b i);
            benv := (conn, Closures.CBScalar slot) :: !benv
          end
      | Some conn, None -> (
          match e.e_src_conn with
          | Some src_conn ->
              let key = Printf.sprintf "%d:%s" e.e_src src_conn in
              let slot = alloc_val b in
              ignore
                (emit b
                   (LoadLast
                      { dst = slot; last = last_slot b key; key; tname = t.tname }));
              benv := (conn, Closures.CBScalar slot) :: !benv
          | None -> ())
      | _ -> ())
    (Sdfg.node_in_edges g n);
  let benv = List.rev !benv in
  (* Body: assignment results land in a contiguous frame region so the
     writes can index them by output position. *)
  let body_instrs, outnames, obase =
    match t.code with
    | Sdfg.Native assigns ->
        let nouts = List.length assigns in
        let obase = alloc_vals b nouts in
        let instrs =
          List.mapi
            (fun i (_, e) ->
              let dst = obase + i in
              match e with
              | Texpr.TBin (op, Texpr.TIn ca, Texpr.TIn cb) -> (
                  match (List.assoc_opt ca benv, List.assoc_opt cb benv) with
                  | Some (Closures.CBScalar a), Some (Closures.CBScalar bb) -> (
                      match op with
                      | Texpr.BDiv -> DivT { dst; a; b = bb }
                      | Texpr.BMod -> RemT { dst; a; b = bb }
                      | _ -> Bin { dst; op; a; b = bb })
                  | _ -> Eval { dst; f = Closures.compile_texpr (sym b) benv e })
              | _ -> Eval { dst; f = Closures.compile_texpr (sym b) benv e })
            assigns
        in
        (instrs, List.map fst assigns, obase)
    | Sdfg.Opaque f ->
        let modul = Dcir_mlir.Ir.new_module () in
        modul.funcs <- [ f ];
        let nouts = List.length t.t_outputs in
        let obase = alloc_vals b nouts in
        let keys =
          Array.of_list
            (List.map (fun c -> Printf.sprintf "%d:%s" n.nid c) t.t_outputs)
        in
        let args =
          Array.of_list
            (List.map
               (fun conn ->
                 match List.assoc_opt conn benv with
                 | Some (Closures.CBScalar i) -> OScalar i
                 | Some (Closures.CBArray data) -> OArray data
                 | None -> OUnbound conn)
               t.t_inputs)
        in
        ( [
            CallOpaque
              {
                tname = t.tname;
                overhead = t.t_overhead;
                modul;
                entry = f.Dcir_mlir.Ir.fname;
                nid = n.nid;
                syms =
                  Array.of_list (List.map (fun s -> (sym b s, s)) t.t_syms);
                args;
                keys;
                obase;
              };
          ],
          t.t_outputs,
          obase )
  in
  let outkeys =
    List.map (fun c -> Printf.sprintf "%d:%s" n.nid c) outnames
  in
  let setouts =
    List.mapi
      (fun i key -> SetOut { last = last_slot b key; src = obase + i })
      outkeys
  in
  (* Writes, per out-edge in edge order; [Interp.write_outputs]
     semantics, with every trap deferred to execution. *)
  let rec index_of i conn = function
    | [] -> None
    | x :: _ when String.equal x conn -> Some i
    | _ :: r -> index_of (i + 1) conn r
  in
  let writes =
    List.filter_map
      (fun (e : Sdfg.edge) ->
        match (e.e_src_conn, e.e_memlet) with
        | Some conn, Some m ->
            Some
              (match index_of 0 conn outnames with
              | None ->
                  TrapNow
                    (Printf.sprintf
                       "no value computed for output connector '%s'" conn)
              | Some i ->
                  if List.for_all Range.is_index m.subset then
                    StoreIdx
                      {
                        src = obase + i;
                        data = m.data;
                        cslot = cslot b m.data;
                        wcr = m.wcr;
                        idxs = lower_index_exprs b m.subset;
                      }
                  else
                    TrapNow
                      (Printf.sprintf
                         "write memlet must be a single element (%s)" m.data))
        | _ -> None)
      (Sdfg.node_out_edges g n)
  in
  (* Peephole: a single two-operand assignment with a single indexed
     write fuses into one load-op-store dispatch. Same effects, same
     order (result slot, then the [lasts] slot, then the store). *)
  let fuse_parts = function
    | Bin { dst; op; a; b } -> Some (dst, op, a, b)
    | DivT { dst; a; b } -> Some (dst, Texpr.BDiv, a, b)
    | RemT { dst; a; b } -> Some (dst, Texpr.BMod, a, b)
    | _ -> None
  in
  (match (body_instrs, setouts, writes) with
  | ( [ bi ],
      [ SetOut { last; src } ],
      [ StoreIdx { src = wsrc; data; cslot = cs; wcr; idxs } ] )
    when (match fuse_parts bi with
         | Some (dst, _, _, _) -> src = dst && wsrc = dst
         | None -> false) ->
      let dst, op, a, bb =
        match fuse_parts bi with Some p -> p | None -> assert false
      in
      ignore
        (emit b
           (FusedBin { dst; op; a; b = bb; last; data; cslot = cs; wcr; idxs }))
  | _ ->
      List.iter (fun i -> ignore (emit b i)) body_instrs;
      List.iter (fun i -> ignore (emit b i)) setouts;
      List.iter (fun i -> ignore (emit b i)) writes)

(* ------------------------------------------------------------------ *)
(* Graphs: one [Step] at entry (exec_graph's budget charge), then the
   nodes in topological order.

   The tree walker only inspects a graph when execution reaches it, so a
   malformed graph (a cycle, an edge to a missing node) must not fail the
   lowering: the exception is caught here and deferred as a [Reraise] at
   the point where the tree walker raises it. *)

(* A single-index dimension: [Range.is_index] without the simplification
   it runs on both bounds, which allocates more than lowering the copy.
   Bounds that differ only before simplification lower to [CopyND]. *)
let same_lo_hi (d : Range.dim) : bool = Dcir_symbolic.Expr.compare d.lo d.hi = 0

let reraise_on (b : builder) (f : unit -> 'a) (k : 'a -> unit) : unit =
  match f () with v -> k v | exception e -> ignore (emit b (Reraise e))

(* Mirrors [Interp.force_topo]: a parallel map sorts its whole body,
   nested map bodies included, before forking any chunk. *)
let rec force_topo (g : Sdfg.graph) : unit =
  ignore (Sdfg.topo_order g);
  List.iter
    (fun (n : Sdfg.node) ->
      match n.kind with
      | Sdfg.MapN mn -> force_topo mn.m_body
      | Sdfg.Access _ | Sdfg.TaskletN _ -> ())
    (Sdfg.nodes g)

let rec lower_graph (b : builder) (sdfg : Sdfg.t) (g : Sdfg.graph) : unit =
  ignore (emit b Step);
  reraise_on b
    (fun () -> Sdfg.topo_order g)
    (List.iter (fun (n : Sdfg.node) ->
         match n.kind with
         | Sdfg.Access _ ->
             List.iter
               (fun (e : Sdfg.edge) ->
                 reraise_on b
                   (fun () -> (Sdfg.node_by_id g e.e_dst).kind)
                   (fun kind ->
                     match (kind, e.e_memlet) with
                     | Sdfg.Access dst_name, Some m ->
                         let dst_subset =
                           match m.other with
                           | Some o -> o
                           | None -> m.subset (* same-region copy *)
                         in
                         lower_copy b ~src:m.data ~dst:dst_name ~wcr:m.wcr
                           ~src_subset:m.subset ~dst_subset
                     | _ -> ()))
               (Sdfg.node_out_edges g n)
         | Sdfg.TaskletN t -> lower_tasklet b g n t
         | Sdfg.MapN mn -> lower_map b sdfg mn))

and lower_copy (b : builder) ~(src : string) ~(dst : string)
    ~(wcr : Sdfg.wcr option) ~(src_subset : Range.t) ~(dst_subset : Range.t) :
    unit =
  let i =
    match (src_subset, dst_subset) with
    | [], [] ->
        Copy0 { src; sslot = cslot b src; dst; dslot = cslot b dst; wcr }
    | [ sd ], [ dd ] ->
        Copy1
          {
            src;
            sslot = cslot b src;
            dst;
            dslot = cslot b dst;
            wcr;
            sr = Closures.compile_range_dim (sym b) sd;
            dr = Closures.compile_range_dim (sym b) dd;
          }
    | _
      when List.for_all same_lo_hi src_subset
           && List.for_all same_lo_hi dst_subset ->
        let index (d : Range.dim) =
          ( Closures.compile_expr (sym b) d.lo,
            Closures.compile_expr (sym b) d.step )
        in
        CopyIdx
          {
            src;
            sslot = cslot b src;
            dst;
            dslot = cslot b dst;
            wcr;
            sr = List.map index src_subset;
            dr = List.map index dst_subset;
            base =
              alloc_ints b (List.length src_subset + List.length dst_subset);
          }
    | _ ->
        CopyND
          {
            Closures.cc_src = src;
            cc_dst = dst;
            cc_wcr = wcr;
            cc_src_dims = List.map (Closures.compile_range_dim (sym b)) src_subset;
            cc_dst_dims = List.map (Closures.compile_range_dim (sym b)) dst_subset;
          }
  in
  ignore (emit b i)

and lower_map (b : builder) (sdfg : Sdfg.t) (mn : Sdfg.map_node) : unit =
  match mn.m_par with
  | Some cert when mn.m_params <> [] -> (
      let ranges = List.map (Closures.compile_range_dim (sym b)) mn.m_ranges in
      List.iter (fun p -> ignore (sym b p)) mn.m_params;
      match force_topo mn.m_body with
      | () ->
          let body = lower_body b.syms sdfg mn.m_body in
          ignore (emit b (ParMap { cert; params = mn.m_params; ranges; body }))
      | exception e ->
          (* the tree walker evaluates the ranges before it sorts the
             body, so a malformed body raises after their charges *)
          List.iter
            (fun r ->
              let lo = alloc_int b and hi = alloc_int b and step = alloc_int b in
              ignore (emit b (EvalRange { lo; hi; step; r })))
            ranges;
          ignore (emit b (Reraise e)))
  | Some _ | None ->
      (* Serial nest: all range bounds evaluate up front (lo, hi, step
         per range, in range order), then the saved symbol bindings, then
         the register loops. A params/ranges arity mismatch traps at the
         depth where the walk diverges — outer loops still run. *)
      let nranges = List.length mn.m_ranges in
      let nparams = List.length mn.m_params in
      let regs =
        List.map
          (fun rd ->
            let lo = alloc_int b and hi = alloc_int b and step = alloc_int b in
            ignore
              (emit b
                 (EvalRange
                    { lo; hi; step; r = Closures.compile_range_dim (sym b) rd }));
            (lo, hi, step))
          mn.m_ranges
      in
      let saves =
        List.map
          (fun p ->
            let slot = alloc_save b in
            ignore (emit b (SaveSym { slot; sym = sym b p }));
            (p, slot))
          mn.m_params
      in
      let depth = min nparams nranges in
      let rec nest k params regs =
        if k = depth then
          if nparams <> nranges then
            ignore (emit b (TrapNow "map params/ranges mismatch"))
          else lower_graph b sdfg mn.m_body
        else
          match (params, regs) with
          | p :: ps, (lo, hi, step) :: rs ->
              let iv = alloc_int b in
              ignore (emit b (LoopInit { iv; lo }));
              let head = b.len in
              let exit_ref = ref (-1) in
              ignore
                (emit_patch b (fun () ->
                     LoopHead { iv; hi; exit_ = !exit_ref }));
              ignore (emit b (LoopIter { sym = sym b p; iv }));
              nest (k + 1) ps rs;
              ignore (emit b (LoopNext { iv; step; head }));
              exit_ref := b.len
          | _ -> assert false
      in
      nest 0 mn.m_params regs;
      List.iter
        (fun (p, slot) -> ignore (emit b (RestoreSym { slot; sym = sym b p })))
        saves

and lower_body (syms : Symtab.t) (sdfg : Sdfg.t) (g : Sdfg.graph) : program =
  let b = new_builder syms in
  lower_graph b sdfg g;
  ignore (emit b Halt);
  finish b sdfg

(* ------------------------------------------------------------------ *)
(* States and the flattened interstate machine. *)

let lower_state (b : builder) (sdfg : Sdfg.t) (s : Sdfg.state)
    ~(state_pc : (string, int) Hashtbl.t) : unit =
  ignore (emit b Step);
  (* Allocation-charge candidates in container-table iteration order
     (same Hashtbl.iter as the tree walker's [exec_state]). *)
  let allocs = ref [] in
  Hashtbl.iter
    (fun _ (c : Sdfg.container) ->
      if c.alloc_state = Some s.s_label && c.storage = Sdfg.Heap then
        allocs := (c, List.map (Closures.compile_expr (sym b)) c.shape) :: !allocs)
    sdfg.containers;
  List.iter
    (fun (c, shape) -> ignore (emit b (AllocState { c; shape })))
    (List.rev !allocs);
  lower_graph b sdfg s.s_graph;
  let outs = Sdfg.out_edges sdfg s.s_label in
  if List.length outs > 1 then ignore (emit b ChargeBranch);
  (* Transition tail shared by every taken edge and the fallthrough; the
     destination pc is patched once every state is laid out. *)
  let emit_tail (dst : string option) : unit =
    match dst with
    | None -> ignore (emit b Halt)
    | Some d ->
        ignore
          (emit_patch b (fun () ->
               match Hashtbl.find_opt state_pc d with
               | Some pc -> Jmp pc
               | None -> Halt (* missing destination state *)))
  in
  List.iter
    (fun (e : Sdfg.istate_edge) ->
      let skip = ref (-1) in
      let cond = Closures.compile_bexpr (sym b) e.ie_cond in
      ignore
        (emit_patch b (fun () ->
             EdgeCond
               { cond; src = e.ie_src; dst = e.ie_dst; if_false = !skip }));
      (match e.ie_assign with
      | [] -> ()
      | assigns ->
          let items =
            Array.of_list
              (List.map
                 (fun (s, ex) -> (sym b s, Closures.compile_expr (sym b) ex))
                 assigns)
          in
          let base = alloc_ints b (Array.length items) in
          ignore (emit b (EdgeAssigns { base; items })));
      emit_tail (Some e.ie_dst);
      skip := b.len)
    outs;
  emit_tail None

let lower (sdfg : Sdfg.t) : program =
  let b = new_builder (Symtab.create ()) in
  let state_pc : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let entry_ref = ref (-1) in
  ignore (emit_patch b (fun () -> Jmp !entry_ref));
  List.iter
    (fun (s : Sdfg.state) ->
      Hashtbl.replace state_pc s.s_label b.len;
      lower_state b sdfg s ~state_pc)
    (Sdfg.states sdfg);
  (* Entry: a missing start state halts without charging a step, like
     the tree walker's empty walk. *)
  let halt_pc = emit b Halt in
  (entry_ref :=
     match Hashtbl.find_opt state_pc sdfg.start_state with
     | Some pc -> pc
     | None -> halt_pc);
  finish b sdfg
