(** Generic bit-vector dataflow over the scf-structured control-flow graph,
    plus the structural analyses the control-centric passes share.

    Polygeist emits structured control flow only, so the CFG is recovered
    from the region tree: every maximal straight-line run of ops becomes a
    block, an [scf.if] fans out into its two branch subgraphs and rejoins,
    and an [scf.for] contributes a body subgraph with a back edge — and,
    crucially, a {e zero-trip bypass edge} from the block before the loop
    straight to the block after it whenever the loop is not proven to run
    at least once. That single edge is what makes every analysis built on
    this CFG trap-safe by construction: nothing inside a possibly-zero-trip
    body is anticipable before the loop, so lazy code motion can never
    speculate a division or a load across the loop entry.

    The solver is a classic worklist fixpoint, parameterized on direction,
    meet, block transfer, and an optional {e edge} function. The edge form
    is what lets one engine cover both ordinary block problems
    (anticipability, availability, dominators) and lazy code motion's
    LATER recurrence, whose gen set lives on edges rather than blocks. *)

open Dcir_mlir

(* ------------------------------------------------------------------ *)
(* Dense bitsets *)

module Bits = struct
  (* Bit [i] lives in word [i / word_bits] at position [i mod word_bits],
     one OCaml int per word. Bits at and above [n] in the last word are
     garbage ([create ~full] sets them, [diff_into] may clear them): [mem]
     and [iter] never look there and [equal] masks them off. *)
  type t = { n : int; w : int array }

  let word_bits = Sys.int_size

  let create ~(full : bool) (n : int) : t =
    let words = (n + word_bits - 1) / word_bits in
    { n; w = Array.make words (if full then -1 else 0) }

  let copy (t : t) : t = { t with w = Array.copy t.w }
  let bit (i : int) : int = 1 lsl (i mod word_bits)

  let mem (t : t) (i : int) : bool = t.w.(i / word_bits) land bit i <> 0

  let add (t : t) (i : int) : unit =
    let k = i / word_bits in
    t.w.(k) <- t.w.(k) lor bit i

  let remove (t : t) (i : int) : unit =
    let k = i / word_bits in
    t.w.(k) <- t.w.(k) land lnot (bit i)

  let inter_into (dst : t) (src : t) : unit =
    for k = 0 to Array.length dst.w - 1 do
      dst.w.(k) <- dst.w.(k) land src.w.(k)
    done

  let union_into (dst : t) (src : t) : unit =
    for k = 0 to Array.length dst.w - 1 do
      dst.w.(k) <- dst.w.(k) lor src.w.(k)
    done

  let diff_into (dst : t) (src : t) : unit =
    for k = 0 to Array.length dst.w - 1 do
      dst.w.(k) <- dst.w.(k) land lnot src.w.(k)
    done

  let equal (a : t) (b : t) : bool =
    let full = a.n / word_bits in
    let same = ref true and k = ref 0 in
    while !same && !k < full do
      same := a.w.(!k) = b.w.(!k);
      incr k
    done;
    !same
    && (a.n mod word_bits = 0
       || (a.w.(full) lxor b.w.(full)) land (bit a.n - 1) = 0)

  let iter (f : int -> unit) (t : t) : unit =
    for k = 0 to Array.length t.w - 1 do
      let word = t.w.(k) in
      if word <> 0 then
        for j = 0 to min word_bits (t.n - (k * word_bits)) - 1 do
          if word land (1 lsl j) <> 0 then f ((k * word_bits) + j)
        done
    done
end

(* ------------------------------------------------------------------ *)
(* CFG *)

type block = {
  bid : int;
  mutable ops : Ir.op list;
      (** straight-line ops in order; control ops ([scf.if]/[scf.for]) and
          terminators are structural, not members *)
  mutable defs : int list;
      (** vids defined at this block: results of its ops, plus results of a
          control op at the join/after block, plus body region args at the
          body-entry block *)
  mutable succs : int list;
  mutable preds : int list;
  b_host : Ir.region;  (** region holding this block's position *)
  mutable b_start : Ir.op option;
      (** op in [b_host] before which the block begins; [None] = region
          end. Insertion "at block start" splices here. *)
  mutable b_end : Ir.op option;
      (** op in [b_host] right after the block's last straight-line op (the
          control op or terminator that ended it); [None] = region end.
          Insertion "at block end" splices here. *)
}

type cfg = {
  blocks : block array;
  entry : int;  (** synthetic, empty, kill-everything boundary block *)
  exit_ : int;
  block_of_op : (int, int) Hashtbl.t;  (** oid -> bid for block members *)
}

let is_terminator (o : Ir.op) : bool =
  match o.Ir.name with "scf.yield" | "func.return" -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Trip-count analysis.

   A loop has a proven nonzero trip count when [lb < ub] holds on entry:
   - both bounds constant; or
   - constant [lb] and a provable lower bound on [ub] above it, where lower
     bounds flow through [arith.addi]/[arith.maxsi] and through enclosing
     induction variables (inside a loop's body, its IV is at least its own
     lower bound); or
   - the (lb, ub) SSA pair is identical to an enclosing loop's — reaching
     the inner loop means the outer body is executing, so [lb < ub] already
     held. *)

let nonzero_trip_loops (body : Ir.region) : (int, unit) Hashtbl.t =
  let consts = Pass_util.const_map body in
  let defs : (int, Ir.op) Hashtbl.t = Hashtbl.create 64 in
  Ir.walk_region body (fun o ->
      List.iter (fun (v : Ir.value) -> Hashtbl.replace defs v.vid o) o.results);
  let proven : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let iv_lb : (int, int) Hashtbl.t = Hashtbl.create 8 in
  let rec lower_bound (v : Ir.value) : int option =
    match Pass_util.const_int consts v with
    | Some c -> Some c
    | None -> (
        match Hashtbl.find_opt iv_lb v.vid with
        | Some c -> Some c
        | None -> (
            match Hashtbl.find_opt defs v.vid with
            | Some { Ir.name = "arith.addi"; operands = [ a; b ]; _ } -> (
                match (lower_bound a, lower_bound b) with
                | Some x, Some y -> Some (x + y)
                | _ -> None)
            | Some { Ir.name = "arith.maxsi"; operands = [ a; b ]; _ } -> (
                match (lower_bound a, lower_bound b) with
                | Some x, Some y -> Some (max x y)
                | Some x, None | None, Some x -> Some x
                | None, None -> None)
            | _ -> None))
  in
  let rec go (r : Ir.region) (enclosing : (int * int) list) =
    List.iter
      (fun (o : Ir.op) ->
        if String.equal o.Ir.name "scf.for" then begin
          let lb, ub, _ = Scf_d.loop_bounds o in
          let nonzero =
            List.mem (lb.Ir.vid, ub.Ir.vid) enclosing
            ||
            match (Pass_util.const_int consts lb, lower_bound ub) with
            | Some l, Some u -> l < u
            | _ -> false
          in
          if nonzero then Hashtbl.replace proven o.oid ();
          (match lower_bound lb with
          | Some l -> Hashtbl.replace iv_lb (Scf_d.loop_iv o).vid l
          | None -> ());
          go (Scf_d.loop_body o) ((lb.Ir.vid, ub.Ir.vid) :: enclosing)
        end
        else List.iter (fun nested -> go nested enclosing) o.Ir.regions)
      r.rops
  in
  go body [];
  proven

(* ------------------------------------------------------------------ *)
(* CFG construction *)

let build_cfg (body : Ir.region) : cfg =
  let nonzero = nonzero_trip_loops body in
  let blocks : block list ref = ref [] in
  let next = ref 0 in
  let block_of_op : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let new_block (host : Ir.region) : block =
    let b =
      { bid = !next; ops = []; defs = []; succs = []; preds = [];
        b_host = host; b_start = None; b_end = None }
    in
    incr next;
    blocks := b :: !blocks;
    b
  in
  let edge (a : block) (b : block) =
    a.succs <- a.succs @ [ b.bid ];
    b.preds <- b.preds @ [ a.bid ]
  in
  (* Build one region's subgraph; [entry_defs] are vids to record at its
     first block (loop body args). Returns (entry, exit) blocks. *)
  let rec build_region (r : Ir.region) (entry_defs : int list) :
      block * block =
    let entry = new_block r in
    entry.defs <- entry_defs;
    (* Blocks created at a split whose start anchor is the next op seen. *)
    let pending_start : block list ref = ref [ entry ] in
    let anchor (o : Ir.op) =
      List.iter (fun b -> b.b_start <- Some o) !pending_start;
      pending_start := []
    in
    let current = ref entry in
    List.iter
      (fun (o : Ir.op) ->
        anchor o;
        match o.Ir.name with
        | "scf.if" ->
            !current.b_end <- Some o;
            let t, e = Scf_d.if_regions o in
            let t_entry, t_exit = build_region t [] in
            let e_entry, e_exit = build_region e [] in
            let join = new_block r in
            join.defs <- List.map (fun (v : Ir.value) -> v.Ir.vid) o.results;
            pending_start := [ join ];
            edge !current t_entry;
            edge !current e_entry;
            edge t_exit join;
            edge e_exit join;
            current := join
        | "scf.for" ->
            !current.b_end <- Some o;
            let pre = !current in
            let bodyr = Scf_d.loop_body o in
            let b_entry, b_exit =
              build_region bodyr
                (List.map (fun (v : Ir.value) -> v.Ir.vid) bodyr.rargs)
            in
            let after = new_block r in
            after.defs <- List.map (fun (v : Ir.value) -> v.Ir.vid) o.results;
            pending_start := [ after ];
            edge pre b_entry;
            edge b_exit b_entry;
            edge b_exit after;
            if not (Hashtbl.mem nonzero o.oid) then edge pre after;
            current := after
        | _ when is_terminator o -> !current.b_end <- Some o
        | _ ->
            (* Any other op — including opaque region-bearing ones — is a
               block member; clients treat unknown region ops as barriers. *)
            !current.ops <- !current.ops @ [ o ];
            !current.defs <-
              !current.defs
              @ List.map (fun (v : Ir.value) -> v.Ir.vid) o.results;
            Hashtbl.replace block_of_op o.oid !current.bid)
      r.rops;
    (entry, !current)
  in
  let real_entry, exit_ = build_region body [] in
  (* Synthetic entry: empty block whose kill set clients take as the full
     universe (the function boundary defines parameters and everything
     else), giving lazy code motion a uniform earliest-insertion frontier
     at function entry. *)
  let s_entry = new_block body in
  s_entry.b_start <- (match body.rops with o :: _ -> Some o | [] -> None);
  s_entry.b_end <- s_entry.b_start;
  edge s_entry real_entry;
  let arr = Array.of_list (List.rev !blocks) in
  Array.sort (fun a b -> compare a.bid b.bid) arr;
  { blocks = arr; entry = s_entry.bid; exit_ = exit_.bid; block_of_op }

(* ------------------------------------------------------------------ *)
(* Worklist solver *)

type direction = Forward | Backward

type solution = { inb : Bits.t array; outb : Bits.t array }
(** [inb]/[outb] are relative to the chosen direction: for [Backward],
    [inb.(b)] is the meet over successors and [outb.(b)] the transferred
    set (i.e. ANTOUT/ANTIN respectively for anticipability). *)

(** [solve cfg ~dir ~nbits ~meet ~boundary ~transfer ?edge ()] runs the
    worklist fixpoint. [boundary] is the in-set of the entry block (exit
    block for [Backward]); interior in-sets start at top (full for
    [`Inter], empty for [`Union]). [edge src dst x] transforms the value
    flowing along one CFG edge before the meet — identity when omitted;
    lazy code motion's LATER recurrence rides on it. The solver terminates
    for any monotone [transfer]/[edge] over this finite lattice. *)
let solve (g : cfg) ~(dir : direction) ~(nbits : int)
    ~(meet : [ `Inter | `Union ]) ~(boundary : Bits.t)
    ~(transfer : int -> Bits.t -> Bits.t)
    ?(edge : (int -> int -> Bits.t -> Bits.t) option) () : solution =
  let n = Array.length g.blocks in
  let boundary_bid = match dir with Forward -> g.entry | Backward -> g.exit_ in
  let sources b =
    match dir with
    | Forward -> g.blocks.(b).preds
    | Backward -> g.blocks.(b).succs
  in
  let sinks b =
    match dir with
    | Forward -> g.blocks.(b).succs
    | Backward -> g.blocks.(b).preds
  in
  let inb =
    Array.init n (fun b ->
        if b = boundary_bid then Bits.copy boundary
        else Bits.create ~full:(meet = `Inter) nbits)
  in
  let outb = Array.init n (fun b -> transfer b inb.(b)) in
  let on_list = Array.make n true in
  let work = Queue.create () in
  Array.iter (fun (b : block) -> Queue.add b.bid work) g.blocks;
  while not (Queue.is_empty work) do
    let b = Queue.pop work in
    on_list.(b) <- false;
    if b <> boundary_bid then begin
      let srcs = sources b in
      let acc = Bits.create ~full:(meet = `Inter && srcs <> []) nbits in
      List.iter
        (fun s ->
          let v =
            match edge with
            | Some f -> f s b (Bits.copy outb.(s))
            | None -> outb.(s)
          in
          (match meet with
          | `Inter -> Bits.inter_into acc v
          | `Union -> Bits.union_into acc v))
        srcs;
      inb.(b) <- acc
    end;
    let out' = transfer b inb.(b) in
    if not (Bits.equal out' outb.(b)) then begin
      outb.(b) <- out';
      List.iter
        (fun s ->
          if not on_list.(s) then begin
            on_list.(s) <- true;
            Queue.add s work
          end)
        (sinks b)
    end
  done;
  { inb; outb }

(* ------------------------------------------------------------------ *)
(* Dominators — a two-line client of the solver: DOM[b] = {b} ∪ ⋂ DOM[p]. *)

let dominators (g : cfg) : Bits.t array =
  let n = Array.length g.blocks in
  let boundary = Bits.create ~full:false n in
  Bits.add boundary g.entry;
  let transfer b s =
    let s = Bits.copy s in
    Bits.add s b;
    s
  in
  (solve g ~dir:Forward ~nbits:n ~meet:`Inter ~boundary ~transfer ()).outb

(** [dominates doms a b]: every path from entry to [b] passes through [a]. *)
let dominates (doms : Bits.t array) (a : int) (b : int) : bool =
  Bits.mem doms.(b) a

(* ------------------------------------------------------------------ *)
(* Speculation safety *)

(** May this op be executed on a path where the original program did not
    execute it? Non-trapping pure ops: yes (an extra add is unobservable).
    Trapping ops and loads: no — a division can trap and a load can be out
    of bounds, so they may only be placed where execution is guaranteed
    (down-safe points, or before loops with proven nonzero trips). *)
let can_speculate (o : Ir.op) : bool = Pass_util.is_pure o
