(** Lazy code motion (partial redundancy elimination), the
    Knoop–Rüthing–Steffen transformation in its Drechsler–Stadel edge
    formulation, as a client of the generic {!Dataflow} framework.

    Four bit-vector problems over the structured CFG:
    - ANT (anticipated, backward ∩): e is computed on every path onward
      before its operands change;
    - AV (available, forward ∩): e was computed on every path here and not
      killed since;
    - EARLIEST(i,j) = ANTIN[j] ∩ ¬AVOUT[i] ∩ (KILL[i] ∪ ¬ANTOUT[i]): the
      first edges where computing e is both useful and possible;
    - LATER (forward over edges): pushes each insertion as far down as it
      can go without making any path compute e twice.

    INSERT(i,j) = LATER(i,j) ∩ ¬LATERIN[j] and DELETE[b] = ANTLOC[b] ∩
    ¬LATERIN[b] then describe the motion. Because insertions land only on
    down-safe (anticipated) edges, a trapping division or a memory load is
    never executed on a path that did not already execute it — the
    zero-trip bypass edges in the CFG make anticipability stop at every
    possibly-zero-trip loop entry, so loop hoisting happens exactly for
    loops with proven nonzero trips. {!Dataflow.can_speculate} is
    re-checked at realization as a final gate for non-speculable ops.

    A local value-numbering step ({!local_reuse}) runs first, as the
    classic formulation assumes: within one block, a repeated candidate
    expression whose value is still available (for loads: no intervening
    store to the memref, no opaque barrier) reuses the first occurrence.
    This is also where the redundant-load wins on branch-free Polybench
    kernels come from — CSE does not touch memory ops and store-forward
    only forwards stores.

    Realization is deliberately restricted to the phi-free case: an
    expression moves only when it has exactly one insertion edge with a
    structurally feasible splice point that dominates every deleted
    occurrence, and no block on a path from that point to a deletion
    kills the expression (a deletion reached around a loop back edge
    after a kill would need the value recomputed there, not the inserted
    one). Everything else (multi-edge insertions needing a join of
    temporaries) is left in place — sound, just not maximally lazy. *)

open Dcir_mlir
module Events = Dcir_obs.Events
module Json = Dcir_obs.Json
module Bits = Dataflow.Bits

(* An expression: one signature, its prototype op, all occurrences. *)
type expr = {
  x_idx : int;
  x_proto : Ir.op;
  mutable x_occs : (int * Ir.op) list;  (** (bid, op), discovery order *)
}

let is_candidate (o : Ir.op) : bool =
  (match o.Ir.results with [ _ ] -> true | _ -> false)
  && o.Ir.operands <> []
  && (Pass_util.is_pure o || Pass_util.is_trapping_pure o
    || Pass_util.is_read_only o)

(* Local availability: the value-numbering step classic LCM assumes has
   already run. A second occurrence of a candidate expression inside one
   single-block region reuses the first while its value is still
   available: loads are killed by a store to their memref and by opaque
   barriers (calls, deallocs, stream pushes, nested regions); pure and
   trapping candidates cannot be killed intra-region (SSA never redefines
   their operands). A reused trapping op is dominated by its twin in the
   same region — the same contract [Cse]/[Dce] enforce. This is where the
   classic PRE load wins on branch-free kernels come from (e.g. the
   doubled [path] loads in floyd-warshall's compare-then-select): CSE
   skips memory ops entirely and store-forward only forwards stores, so
   nothing else in the pipeline sees them. Replacements rewrite uses in
   place, so a chain (dup load feeding a dup add) collapses in one walk. *)
let local_reuse (body : Ir.region) : (string * int) list =
  let eliminated : (string, int) Hashtbl.t = Hashtbl.create 4 in
  let rec go (r : Ir.region) : unit =
    let avail : (string, Ir.op) Hashtbl.t = Hashtbl.create 16 in
    let kill (pred : Ir.op -> bool) : unit =
      let doomed =
        Hashtbl.fold
          (fun sg (o : Ir.op) acc -> if pred o then sg :: acc else acc)
          avail []
      in
      List.iter (Hashtbl.remove avail) doomed
    in
    let is_load (o : Ir.op) : bool = Pass_util.read_memref o <> None in
    r.Ir.rops <-
      List.filter
        (fun (o : Ir.op) ->
          let kept =
            if not (is_candidate o) then true
            else
              let sg = Pass_util.signature o in
              match Hashtbl.find_opt avail sg with
              | Some orig ->
                  Ir.replace_uses_in_region body ~from_:(Ir.result o)
                    ~to_:(Ir.result orig);
                  Hashtbl.replace eliminated o.Ir.name
                    (1
                    + Option.value ~default:0
                        (Hashtbl.find_opt eliminated o.Ir.name));
                  false
              | None ->
                  Hashtbl.add avail sg o;
                  true
          in
          if kept then begin
            List.iter go o.Ir.regions;
            (match Pass_util.written_memref o with
            | Some mr ->
                kill (fun c ->
                    match Pass_util.read_memref c with
                    | Some m -> m.Ir.vid = mr.Ir.vid
                    | None -> false)
            | None -> ());
            match o.Ir.name with
            | "func.call" | "memref.dealloc" | "sdfg.stream_push" ->
                kill is_load
            | _ -> if o.Ir.regions <> [] then kill is_load
          end;
          kept)
        r.Ir.rops
  in
  go body;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) eliminated [])

(* Insert [v] into [r.rops] before [anchor] ([None] = append). *)
let splice (r : Ir.region) (anchor : Ir.op option) (v : Ir.op) : unit =
  match anchor with
  | None -> r.Ir.rops <- r.Ir.rops @ [ v ]
  | Some a ->
      let rec go = function
        | [] -> [ v ]
        | o :: rest when o.Ir.oid = a.Ir.oid -> v :: o :: rest
        | o :: rest -> o :: go rest
      in
      r.Ir.rops <- go r.Ir.rops

let run_on_func (f : Ir.func) : bool =
  match f.Ir.fbody with
  | None -> false
  | Some body ->
      let local = local_reuse body in
      List.iter
        (fun (name, cnt) ->
          Events.emit ~code:"PASS-LCM"
            [
              ("func", Json.Str f.Ir.fname);
              ("op", Json.Str name);
              ("deletes", Json.Int cnt);
              ("placement", Json.Str "local");
            ])
        local;
      let locally_changed = local <> [] in
      let cfg = Dataflow.build_cfg body in
      let nblocks = Array.length cfg.blocks in
      (* ---- expression universe ---- *)
      let by_sig : (string, expr) Hashtbl.t = Hashtbl.create 64 in
      let exprs = ref [] in
      Array.iter
        (fun (b : Dataflow.block) ->
          List.iter
            (fun (o : Ir.op) ->
              if is_candidate o then begin
                let sg = Pass_util.signature o in
                let e =
                  match Hashtbl.find_opt by_sig sg with
                  | Some e -> e
                  | None ->
                      let e =
                        { x_idx = Hashtbl.length by_sig; x_proto = o;
                          x_occs = [] }
                      in
                      Hashtbl.add by_sig sg e;
                      exprs := e :: !exprs;
                      e
                in
                e.x_occs <- e.x_occs @ [ (b.bid, o) ]
              end)
            b.ops)
        cfg.blocks;
      let exprs = Array.of_list (List.rev !exprs) in
      let n = Array.length exprs in
      if n = 0 then locally_changed
      else begin
        (* ---- per-block local sets ---- *)
        let operand_users : (int, int list) Hashtbl.t = Hashtbl.create 64 in
        let load_users : (int, int list) Hashtbl.t = Hashtbl.create 16 in
        let loads = Bits.create ~full:false n in
        Array.iter
          (fun (e : expr) ->
            List.iter
              (fun (v : Ir.value) ->
                Hashtbl.replace operand_users v.Ir.vid
                  (e.x_idx
                  :: Option.value ~default:[]
                       (Hashtbl.find_opt operand_users v.Ir.vid)))
              e.x_proto.Ir.operands;
            match Pass_util.read_memref e.x_proto with
            | Some mr ->
                Bits.add loads e.x_idx;
                Hashtbl.replace load_users mr.Ir.vid
                  (e.x_idx
                  :: Option.value ~default:[]
                       (Hashtbl.find_opt load_users mr.Ir.vid))
            | None -> ())
          exprs;
        let antloc = Array.init nblocks (fun _ -> Bits.create ~full:false n) in
        let comp = Array.init nblocks (fun _ -> Bits.create ~full:false n) in
        let kill = Array.init nblocks (fun _ -> Bits.create ~full:false n) in
        (* Deletable (pre-kill) occurrences per block. *)
        let antloc_occs : (int, (int * Ir.op) list) Hashtbl.t =
          Hashtbl.create 32
        in
        Array.iter
          (fun (b : Dataflow.block) ->
            let bid = b.Dataflow.bid in
            if bid = cfg.entry then
              (* Synthetic entry: the function boundary defines everything,
                 giving EARLIEST a uniform frontier at function entry. *)
              for i = 0 to n - 1 do
                Bits.add kill.(bid) i
              done
            else begin
              let kill_one i =
                Bits.add kill.(bid) i;
                Bits.remove comp.(bid) i
              in
              let kill_users tbl key =
                List.iter kill_one
                  (Option.value ~default:[] (Hashtbl.find_opt tbl key))
              in
              List.iter
                (fun (o : Ir.op) ->
                  (* Occurrence first: it reads its operands before its own
                     result def (or any store effect) applies. *)
                  (if is_candidate o then
                     let e = Hashtbl.find by_sig (Pass_util.signature o) in
                     if not (Bits.mem kill.(bid) e.x_idx) then begin
                       Bits.add antloc.(bid) e.x_idx;
                       Hashtbl.replace antloc_occs bid
                         ((e.x_idx, o)
                         :: Option.value ~default:[]
                              (Hashtbl.find_opt antloc_occs bid))
                     end;
                     Bits.add comp.(bid) e.x_idx);
                  List.iter
                    (fun (v : Ir.value) -> kill_users operand_users v.Ir.vid)
                    o.Ir.results;
                  (match Pass_util.written_memref o with
                  | Some mr -> kill_users load_users mr.Ir.vid
                  | None -> ());
                  match o.Ir.name with
                  | "func.call" | "memref.dealloc" | "sdfg.stream_push" ->
                      Bits.iter kill_one loads
                  | _ ->
                      (* Unknown region-bearing ops are opaque barriers. *)
                      if o.Ir.regions <> [] then Bits.iter kill_one loads)
                b.ops;
              (* Defs not produced by member ops (region args, control-op
                 results at join/after blocks) also kill. *)
              List.iter (fun vid -> kill_users operand_users vid) b.defs
            end)
          cfg.blocks;
        (* ---- the four dataflow problems ---- *)
        let empty = Bits.create ~full:false n in
        let ant =
          Dataflow.solve cfg ~dir:Backward ~nbits:n ~meet:`Inter
            ~boundary:empty
            ~transfer:(fun b x ->
              let s = Bits.copy x in
              Bits.diff_into s kill.(b);
              Bits.union_into s antloc.(b);
              s)
            ()
        in
        let antout = ant.Dataflow.inb and antin = ant.Dataflow.outb in
        let av =
          Dataflow.solve cfg ~dir:Forward ~nbits:n ~meet:`Inter
            ~boundary:empty
            ~transfer:(fun b x ->
              let s = Bits.copy x in
              Bits.diff_into s kill.(b);
              Bits.union_into s comp.(b);
              s)
            ()
        in
        let avout = av.Dataflow.outb in
        let earliest (i : int) (j : int) : Bits.t =
          let s = Bits.copy antin.(j) in
          Bits.diff_into s avout.(i);
          let guard = Bits.copy kill.(i) in
          let not_antout = Bits.create ~full:true n in
          Bits.diff_into not_antout antout.(i);
          Bits.union_into guard not_antout;
          Bits.inter_into s guard;
          s
        in
        (* LATER via the edge form: OUT[i] = LATERIN[i] ∖ ANTLOC[i], and
           each edge adds its EARLIEST before the ∩-meet at j. *)
        let later =
          Dataflow.solve cfg ~dir:Forward ~nbits:n ~meet:`Inter
            ~boundary:empty
            ~transfer:(fun b x ->
              let s = Bits.copy x in
              Bits.diff_into s antloc.(b);
              s)
            ~edge:(fun i j x ->
              Bits.union_into x (earliest i j);
              x)
            ()
        in
        let laterin = later.Dataflow.inb in
        let later_edge (i : int) (j : int) : Bits.t =
          let s = Bits.copy laterin.(i) in
          Bits.diff_into s antloc.(i);
          Bits.union_into s (earliest i j);
          s
        in
        (* ---- realization (phi-free subset) ---- *)
        let doms = Dataflow.dominators cfg in
        let def_block : (int, int) Hashtbl.t = Hashtbl.create 64 in
        (* vids defined by a block *member* op (as opposed to region args or
           control-op results, which bind before the block's first op). *)
        let member_def : (int, unit) Hashtbl.t = Hashtbl.create 64 in
        Array.iter
          (fun (b : Dataflow.block) ->
            List.iter (fun vid -> Hashtbl.replace def_block vid b.Dataflow.bid)
              b.defs;
            List.iter
              (fun (o : Ir.op) ->
                List.iter
                  (fun (v : Ir.value) -> Hashtbl.replace member_def v.Ir.vid ())
                  o.Ir.results)
              b.ops)
          cfg.blocks;
        let inserts_of (x : int) : (int * int) list =
          let acc = ref [] in
          Array.iter
            (fun (b : Dataflow.block) ->
              let i = b.Dataflow.bid in
              List.iter
                (fun j ->
                  let ins = later_edge i j in
                  Bits.diff_into ins laterin.(j);
                  if Bits.mem ins x then acc := (i, j) :: !acc)
                b.succs)
            cfg.blocks;
          !acc
        in
        (* The single inserted value replaces every deletion, so no path
           from the insertion to a deletion may pass through a block that
           kills the expression: there the deletion would need a value
           computed after the kill, e.g. a load recomputed after a store
           to its memref and carried around a loop back edge. Paths start
           at [start]'s entry and end at a deletion's upward-exposed
           occurrence; a path re-entering [reset] (the block the
           insertion sits in) runs the insertion again, so it ends there. *)
        let kill_on_path ~(x : int) ~(start : int) ~(reset : int)
            (deletes : (int * Ir.op) list) : bool =
          let fwd = Array.make nblocks false in
          let rec visit b =
            if not fwd.(b) then begin
              fwd.(b) <- true;
              List.iter
                (fun s -> if s <> reset then visit s)
                cfg.blocks.(b).Dataflow.succs
            end
          in
          visit start;
          let bwd = Array.make nblocks false in
          let rec back b =
            if not bwd.(b) then begin
              bwd.(b) <- true;
              if b <> reset then List.iter back cfg.blocks.(b).Dataflow.preds
            end
          in
          List.iter (fun (db, _) -> back db) deletes;
          Array.exists
            (fun (blk : Dataflow.block) ->
              let k = blk.Dataflow.bid in
              fwd.(k)
              && Bits.mem kill.(k) x
              && List.exists (fun s -> s <> reset && bwd.(s)) blk.succs)
            cfg.blocks
        in
        let changed = ref false in
        let pending_inserts = ref [] in
        let pending_deletes = ref [] in
        Array.iter
          (fun (e : expr) ->
            let x = e.x_idx in
            let deletes =
              List.concat_map
                (fun (b : Dataflow.block) ->
                  let bid = b.Dataflow.bid in
                  if Bits.mem antloc.(bid) x && not (Bits.mem laterin.(bid) x)
                  then
                    List.filter_map
                      (fun (xi, op) -> if xi = x then Some (bid, op) else None)
                      (Option.value ~default:[]
                         (Hashtbl.find_opt antloc_occs bid))
                  else [])
                (Array.to_list cfg.blocks)
            in
            match (inserts_of x, deletes) with
            | [ (i, j) ], _ :: _ ->
                (* One insertion edge: find its splice point. *)
                let point =
                  if cfg.blocks.(j).preds = [ i ] then
                    Some
                      (`Start, j, cfg.blocks.(j).b_host,
                       cfg.blocks.(j).b_start)
                  else if cfg.blocks.(i).succs = [ j ] then
                    Some (`End, i, cfg.blocks.(i).b_host, cfg.blocks.(i).b_end)
                  else None
                in
                (match point with
                | None -> ()
                | Some (side, ib, host, anchor) ->
                    let dominated_ok =
                      List.for_all
                        (fun (db, _) ->
                          Dataflow.dominates doms ib db
                          && (db <> ib || side = `Start))
                        deletes
                    in
                    let operands_ok =
                      List.for_all
                        (fun (v : Ir.value) ->
                          match Hashtbl.find_opt def_block v.Ir.vid with
                          | None -> true (* function param / module level *)
                          | Some db ->
                              Dataflow.dominates doms db ib
                              && not
                                   (db = ib && side = `Start
                                   && Hashtbl.mem member_def v.Ir.vid))
                        e.x_proto.Ir.operands
                    in
                    let down_safe =
                      Dataflow.can_speculate e.x_proto
                      ||
                      match side with
                      | `Start -> Bits.mem antin.(ib) x
                      | `End -> Bits.mem antout.(ib) x
                    in
                    if
                      dominated_ok && operands_ok && down_safe
                      && not (kill_on_path ~x ~start:j ~reset:ib deletes)
                    then begin
                      let fresh =
                        Ir.new_op e.x_proto.Ir.name
                          ~operands:e.x_proto.Ir.operands
                          ~results:
                            [ Ir.new_value ~hint:"lcm"
                                (Ir.result e.x_proto).Ir.vty ]
                          ~attrs:e.x_proto.Ir.attrs
                      in
                      pending_inserts := (host, anchor, fresh) :: !pending_inserts;
                      List.iter
                        (fun (db, (op : Ir.op)) ->
                          pending_deletes :=
                            (cfg.blocks.(db).b_host, op, Ir.result fresh)
                            :: !pending_deletes)
                        deletes;
                      Events.emit ~code:"PASS-LCM"
                        [
                          ("func", Json.Str f.Ir.fname);
                          ("op", Json.Str e.x_proto.Ir.name);
                          ("deletes", Json.Int (List.length deletes));
                          ( "placement",
                            Json.Str
                              (match side with
                              | `Start -> "block-start"
                              | `End -> "block-end") );
                        ];
                      changed := true
                    end)
            | _ -> ())
          exprs;
        (* Insert first (anchors may be deleted ops), then delete. *)
        List.iter
          (fun (host, anchor, v) -> splice host anchor v)
          (List.rev !pending_inserts);
        List.iter
          (fun ((host : Ir.region), (op : Ir.op), repl) ->
            Ir.replace_uses_in_region body ~from_:(Ir.result op) ~to_:repl;
            host.Ir.rops <-
              List.filter (fun (o : Ir.op) -> o.Ir.oid <> op.Ir.oid) host.rops)
          (List.rev !pending_deletes);
        if !changed then ignore (Dce.run_on_func f);
        !changed || locally_changed
      end

let pass : Pass.t = Pass.per_function "lcm" run_on_func
