(** The bytecode dispatch loop — one [while] over a flat code array.

    Every instruction drives the same {!Dcir_machine.Machine} charge
    helpers as the tree walker, in the same order, so outputs, traps and
    machine metrics are bit-identical across both tiers (the fuzz oracle
    and [test/test_interp_plans.ml] enforce this). What disappears is
    pure interpretation overhead: per-tasklet environments, index lists,
    topological re-sorts, and the interstate edge scan.

    Certified parallel maps delegate to {!Interp.exec_par_chunks} — the
    chunked schedule, forked machines and deterministic metric merge are
    shared with the tree walker; only the chunk bodies execute as
    bytecode. *)

open Dcir_machine
module Interp = Dcir_sdfg.Interp
module Sdfg = Dcir_sdfg.Sdfg
module Expr = Dcir_symbolic.Expr
module Symtab = Dcir_sdfg.Symtab
open Isa

(* Per-frame (buffer, dims) cache: the first touch goes through
   [Interp.buffer_of] (which may lazily allocate a transient, with the
   tree walker's exact charge suppression); later touches skip the
   hashtable. Buffer bindings never change within a run, so the cache
   is sound; parallel chunk bodies get fresh frames. *)
let cached (rt : Interp.runtime) (fr : frame) (slot : int) (name : string) :
    Machine.buffer * int array =
  match fr.bufs.(slot) with
  | Some bd -> bd
  | None ->
      let buf = Interp.buffer_of rt name in
      let dims =
        match Hashtbl.find_opt rt.dims name with
        | Some d -> d
        | None -> Interp.trap "no dims for container '%s'" name
      in
      let bd = (buf, dims) in
      fr.bufs.(slot) <- Some bd;
      bd

let rank_trap (name : string) (n : int) (rank : int) : unit =
  Interp.trap "container '%s': %d indices for rank %d" name n rank

(* Evaluate a single-element subset and linearize it with [linearize]'s
   exact charge sequence (rank trap first, one Int_alu per dimension
   past the first), without allocating an index list. *)
let load_linear (rt : Interp.runtime) (fr : frame) ~(data : string)
    ~(cslot : int) (idxs : iexpr array) : Machine.buffer * int =
  match Array.length idxs with
  | 0 ->
      let buf, dims = cached rt fr cslot data in
      if Array.length dims <> 0 then rank_trap data 0 (Array.length dims);
      (buf, 0)
  | 1 ->
      let i0 = Closures.ceval idxs.(0) rt in
      let buf, dims = cached rt fr cslot data in
      if Array.length dims <> 1 then rank_trap data 1 (Array.length dims);
      (buf, i0)
  | 2 ->
      let i0 = Closures.ceval idxs.(0) rt in
      let i1 = Closures.ceval idxs.(1) rt in
      let buf, dims = cached rt fr cslot data in
      if Array.length dims <> 2 then rank_trap data 2 (Array.length dims);
      Machine.charge_op rt.machine Cost.Int_alu;
      (buf, (i0 * dims.(1)) + i1)
  | n ->
      let tmp = Array.make n 0 in
      for k = 0 to n - 1 do
        tmp.(k) <- Closures.ceval idxs.(k) rt
      done;
      let buf, dims = cached rt fr cslot data in
      if Array.length dims <> n then rank_trap data n (Array.length dims);
      let lin = ref tmp.(0) in
      for k = 1 to n - 1 do
        Machine.charge_op rt.machine Cost.Int_alu;
        lin := (!lin * dims.(k)) + tmp.(k)
      done;
      (buf, !lin)

(* [CopyIdx]'s ranges in [eval_crange]'s order (lo, hi, step per
   dimension; hi is lo again, and it and step evaluate for their charges
   only), each index landing in [ints.(pos)] onwards. *)
let rec eval_indices (rt : Interp.runtime) (fr : frame)
    (rs : (iexpr * iexpr) list) (pos : int) : unit =
  match rs with
  | [] -> ()
  | (clo, cstep) :: rest ->
      fr.ints.(pos) <- Closures.ceval clo rt;
      ignore (Closures.ceval clo rt : int);
      ignore (Closures.ceval cstep rt : int);
      eval_indices rt fr rest (pos + 1)

(* [Interp.linearize] of the [n] indices at [ints.(base)]: the rank trap,
   then one Int_alu per dimension past the first. *)
let linear_ints (rt : Interp.runtime) (fr : frame) ~(name : string)
    (dims : int array) (base : int) (n : int) : int =
  if Array.length dims <> n then rank_trap name n (Array.length dims);
  let lin = ref 0 in
  for k = 0 to n - 1 do
    if k > 0 then Machine.charge_op rt.machine Cost.Int_alu;
    lin := (!lin * dims.(k)) + fr.ints.(base + k)
  done;
  !lin

(* The filler of a fresh opaque-call argument array. *)
let no_arg : Dcir_mlir.Interp.rtval = Dcir_mlir.Interp.Scalar (Value.VInt 0)

let rec blit_list (l : Value.t list) (dst : Value.t array) (pos : int) : unit =
  match l with
  | [] -> ()
  | v :: rest ->
      dst.(pos) <- v;
      blit_list rest dst (pos + 1)

let do_store (rt : Interp.runtime) (buf : Machine.buffer) (lin : int)
    (wcr : Sdfg.wcr option) (v : Value.t) : unit =
  match wcr with
  | None -> Machine.store rt.machine buf lin v
  | Some w ->
      let old_v = Machine.load rt.machine buf lin in
      Machine.store rt.machine buf lin (Interp.apply_wcr rt w old_v v)

let rec exec (rt : Interp.runtime) (p : program) : unit =
  let fr = make_frame p in
  let code = p.p_code in
  let m = rt.machine in
  let pc = ref 0 in
  let halted = ref false in
  while not !halted do
    let ip = !pc in
    pc := ip + 1;
    match code.(ip) with
    | Halt -> halted := true
    | Jmp t -> pc := t
    | Step -> Interp.charge_step rt
    | Reraise e -> raise e
    | TrapNow msg -> raise (Interp.Trap msg)
    (* -- state machine --------------------------------------------- *)
    | AllocState { c; shape } ->
        if c.alloc_in_loop || not (Hashtbl.mem rt.alloc_charged c.cname)
        then begin
          Hashtbl.replace rt.alloc_charged c.cname ();
          let bytes =
            List.fold_left
              (fun acc cd -> acc * max 1 (Closures.ceval cd rt))
              1 shape
            * Sdfg.elem_bytes c
          in
          Machine.charge_state_alloc m ~bytes ~in_loop:c.alloc_in_loop
        end
    | ChargeBranch -> Machine.charge_op m Cost.Branch
    | EdgeCond { cond; src; dst; if_false } ->
        let taken =
          match cond rt with
          | v -> v
          | exception Expr.Unbound_symbol sym ->
              Interp.trap "condition on edge %s->%s reads unbound symbol '%s'"
                src dst sym
        in
        if not taken then pc := if_false
    | EdgeAssigns { base; items } ->
        let n = Array.length items in
        for j = 0 to n - 1 do
          Machine.charge_op m Cost.Int_alu;
          fr.ints.(base + j) <- Closures.ceval (snd items.(j)) rt
        done;
        for j = 0 to n - 1 do
          Symtab.set_id rt.symbols (fst items.(j)) fr.ints.(base + j)
        done
    (* -- serial map loops ------------------------------------------ *)
    | EvalRange { lo; hi; step; r } ->
        let l, h, s = Closures.eval_crange rt r in
        fr.ints.(lo) <- l;
        fr.ints.(hi) <- h;
        fr.ints.(step) <- s
    | SaveSym { slot; sym } ->
        fr.saves.(slot) <-
          (if Symtab.is_bound rt.symbols sym then
             Some (Symtab.get rt.symbols sym)
           else None)
    | RestoreSym { slot; sym } -> (
        match fr.saves.(slot) with
        | Some v -> Symtab.set_id rt.symbols sym v
        | None -> Symtab.unset_id rt.symbols sym)
    | LoopInit { iv; lo } -> fr.ints.(iv) <- fr.ints.(lo)
    | LoopHead { iv; hi; exit_ } ->
        if fr.ints.(iv) > fr.ints.(hi) then pc := exit_
    | LoopIter { sym; iv } ->
        Machine.charge_op m Cost.Int_alu;
        Machine.charge_op m Cost.Branch;
        Symtab.set_id rt.symbols sym fr.ints.(iv)
    | LoopNext { iv; step; head } ->
        fr.ints.(iv) <- fr.ints.(iv) + fr.ints.(step);
        pc := head
    (* -- certified parallel maps ----------------------------------- *)
    | ParMap { cert; params; ranges; body } ->
        let dims = List.map (Closures.eval_crange rt) ranges in
        Interp.exec_par_chunks rt cert ~params ~dims ~body:(fun crt ->
            exec crt body)
    (* -- memlet copies --------------------------------------------- *)
    | CopyND cc -> Closures.exec_ccopy rt cc
    | Copy1 { src; sslot; dst; dslot; wcr; sr; dr } ->
        let sbuf, sdims = cached rt fr sslot src in
        let dbuf, ddims = cached rt fr dslot dst in
        let slo, shi, sstep = Closures.eval_crange rt sr in
        let dlo, dhi, dstep = Closures.eval_crange rt dr in
        if slo = shi && dlo = dhi then begin
          if Array.length sdims <> 1 then rank_trap src 1 (Array.length sdims);
          let v = Machine.load m sbuf slo in
          if Array.length ddims <> 1 then rank_trap dst 1 (Array.length ddims);
          do_store rt dbuf dlo wcr v
        end
        else begin
          let i = ref slo and k = ref 0 in
          while !i <= shi do
            if Array.length sdims <> 1 then
              rank_trap src 1 (Array.length sdims);
            let v = Machine.load m sbuf !i in
            if Array.length ddims <> 1 then
              rank_trap dst 1 (Array.length ddims);
            do_store rt dbuf (dlo + (!k * dstep)) wcr v;
            i := !i + sstep;
            incr k
          done
        end
    | Copy0 { src; sslot; dst; dslot; wcr } ->
        let sbuf, sdims = cached rt fr sslot src in
        let dbuf, ddims = cached rt fr dslot dst in
        if Array.length sdims <> 0 then rank_trap src 0 (Array.length sdims);
        let v = Machine.load m sbuf 0 in
        if Array.length ddims <> 0 then rank_trap dst 0 (Array.length ddims);
        do_store rt dbuf 0 wcr v
    | CopyIdx { src; sslot; dst; dslot; wcr; sr; dr; base } ->
        (* [Closures.exec_ccopy]'s single-element path *)
        let sbuf, sdims = cached rt fr sslot src in
        let dbuf, ddims = cached rt fr dslot dst in
        let ns = List.length sr in
        eval_indices rt fr sr base;
        eval_indices rt fr dr (base + ns);
        let v =
          Machine.load m sbuf (linear_ints rt fr ~name:src sdims base ns)
        in
        let dlin =
          linear_ints rt fr ~name:dst ddims (base + ns) (List.length dr)
        in
        do_store rt dbuf dlin wcr v
    (* -- tasklets -------------------------------------------------- *)
    | LoadIdx { dst; data; cslot; idxs } ->
        let buf, lin = load_linear rt fr ~data ~cslot idxs in
        fr.vals.(dst) <- Machine.load m buf lin
    | LoadLast { dst; last; key; tname } ->
        if fr.lset.(last) then fr.vals.(dst) <- fr.lasts.(last)
        else
          Interp.trap "tasklet '%s': value edge source %s not yet executed"
            tname key
    | Eval { dst; f } -> fr.vals.(dst) <- f rt fr.vals
    | Bin { dst; op; a; b } ->
        fr.vals.(dst) <- Interp.apply_binop m op fr.vals.(a) fr.vals.(b)
    | DivT { dst; a; b } -> (
        match (fr.vals.(a), fr.vals.(b)) with
        | Value.VInt x, Value.VInt y ->
            Machine.charge_op m Cost.Int_div;
            if y = 0 then Interp.trap "division by zero in tasklet"
            else fr.vals.(dst) <- Value.VInt (x / y)
        | va, vb -> fr.vals.(dst) <- Interp.apply_binop m Texpr.BDiv va vb)
    | RemT { dst; a; b } -> (
        match (fr.vals.(a), fr.vals.(b)) with
        | Value.VInt x, Value.VInt y ->
            Machine.charge_op m Cost.Int_div;
            if y = 0 then Interp.trap "modulo by zero in tasklet"
            else fr.vals.(dst) <- Value.VInt (x mod y)
        | va, vb -> fr.vals.(dst) <- Interp.apply_binop m Texpr.BMod va vb)
    | SetOut { last; src } ->
        fr.lasts.(last) <- fr.vals.(src);
        fr.lset.(last) <- true
    | StoreIdx { src; data; cslot; wcr; idxs } ->
        let buf, lin = load_linear rt fr ~data ~cslot idxs in
        do_store rt buf lin wcr fr.vals.(src)
    | FusedBin { dst; op; a; b; last; data; cslot; wcr; idxs } ->
        let v = Interp.apply_binop m op fr.vals.(a) fr.vals.(b) in
        fr.vals.(dst) <- v;
        fr.lasts.(last) <- v;
        fr.lset.(last) <- true;
        let buf, lin = load_linear rt fr ~data ~cslot idxs in
        do_store rt buf lin wcr v
    | CallOpaque { tname; overhead; modul; entry; nid; syms; args; keys; obase }
      ->
        Machine.charge m overhead;
        let ns = Array.length syms in
        let argv = Array.make (ns + Array.length args) no_arg in
        for i = 0 to ns - 1 do
          let id, s = syms.(i) in
          argv.(i) <-
            (match Interp.sym_id rt id s with
            | v -> Dcir_mlir.Interp.Scalar (Value.VInt v)
            | exception Expr.Unbound_symbol _ ->
                Interp.trap "opaque tasklet '%s': unbound symbol '%s'" tname s)
        done;
        for j = 0 to Array.length args - 1 do
          argv.(ns + j) <-
            (match args.(j) with
            | OScalar i -> Dcir_mlir.Interp.Scalar fr.vals.(i)
            | OArray data ->
                Dcir_mlir.Interp.Buf
                  {
                    buf = Interp.buffer_of rt data;
                    dims = Interp.dims_of rt data;
                  }
            | OUnbound conn ->
                Interp.trap "opaque tasklet '%s': unbound connector '%s'" tname
                  conn)
        done;
        let prep =
          match Hashtbl.find_opt rt.prepared nid with
          | Some p -> p
          | None ->
              let p =
                Dcir_mlir.Interp.prepare ~machine:rt.machine modul ~entry
              in
              Hashtbl.replace rt.prepared nid p;
              p
        in
        let results = Dcir_mlir.Interp.run_prepared prep argv in
        (* one result per output key, or the length error of [List.map2] *)
        if List.compare_length_with results (Array.length keys) <> 0 then
          invalid_arg "List.map2";
        blit_list results fr.vals obase
  done

(** [run p ~buffers ~symbols] executes a lowered program through
    {!Interp.run}, which builds the runtime (its symbol table from the
    program's interned names), binds the arguments and computes the
    return value exactly as for the tree walker. *)
let run ?(machine : Machine.t option) ?(jobs : int = 1) (p : program)
    ~(buffers : (string * Machine.buffer * int array) list)
    ~(symbols : (string * int) list) () : Interp.result =
  Interp.run ?machine ~jobs ~exec:(fun rt -> exec rt p)
    ~names:p.p_syms p.p_sdfg ~buffers ~symbols ()
