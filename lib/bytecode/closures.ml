(** Closure compilers for the bytecode tier.

    Symbolic expressions, interstate conditions, memlet ranges and
    general tasklet bodies that do not fit a specialized opcode compile
    once, at lowering time, into closures over the
    {!Dcir_sdfg.Interp.runtime}. Each closure drives the tree walker's
    own charge helpers ([sym_id], [linearize], [buffer_of],
    [apply_binop], ...) in the tree walker's evaluation order, so a
    closure is exact by construction: same charges, same traps, same
    results.

    Symbol names resolve at compile time, through the [sym] interner the
    lowering passes in, to ids of the run's {!Dcir_sdfg.Symtab}; a
    closure reads a symbol by indexing, never by hashing its name. *)

open Dcir_symbolic
open Dcir_machine
module Texpr = Dcir_sdfg.Texpr
module Sdfg = Dcir_sdfg.Sdfg
open Dcir_sdfg.Interp

type iexpr = runtime -> int
(** compiled symbolic expression; raises [Expr.Unbound_symbol] *)

type crange = iexpr * iexpr * iexpr  (** (lo, hi, step) *)

type syms = string -> int
(** the lowering's interner: symbol name -> id in the run's table *)

(* Compiled symbolic expression; mirrors Expr.eval's left-to-right
   evaluation (the symbol environment may charge for scalar-container
   reads) and raises Expr.Unbound_symbol like the interpreter. Sums and
   products of two or three terms evaluate without a fold closure. *)
let compile_expr (sym : syms) : Expr.t -> iexpr =
  let rec compile_expr (e : Expr.t) : iexpr =
    match e with
    | Expr.Int n -> fun _ -> n
    | Expr.Sym s ->
        let id = sym s in
        fun rt -> sym_id rt id s
    | Expr.Add [ a; b ] ->
        let ca = compile_expr a and cb = compile_expr b in
        fun rt ->
          let x = ca rt in
          x + cb rt
    | Expr.Add [ a; b; c ] ->
        let ca = compile_expr a and cb = compile_expr b in
        let cc = compile_expr c in
        fun rt ->
          let x = ca rt in
          let y = cb rt in
          x + y + cc rt
    | Expr.Mul [ a; b ] ->
        let ca = compile_expr a and cb = compile_expr b in
        fun rt ->
          let x = ca rt in
          x * cb rt
    | Expr.Mul [ a; b; c ] ->
        let ca = compile_expr a and cb = compile_expr b in
        let cc = compile_expr c in
        fun rt ->
          let x = ca rt in
          let y = cb rt in
          x * y * cc rt
    | Expr.Add xs ->
        let cs = List.map compile_expr xs in
        fun rt -> List.fold_left (fun acc c -> acc + c rt) 0 cs
    | Expr.Mul xs ->
        let cs = List.map compile_expr xs in
        fun rt -> List.fold_left (fun acc c -> acc * c rt) 1 cs
    | Expr.Div (a, b) ->
        let ca = compile_expr a and cb = compile_expr b in
        fun rt ->
          let x = ca rt in
          let y = cb rt in
          if y = 0 then invalid_arg "Expr.eval: division by zero"
          else if (x < 0) <> (y < 0) && x mod y <> 0 then (x / y) - 1
          else x / y
    | Expr.Mod (a, b) ->
        let ca = compile_expr a and cb = compile_expr b in
        fun rt ->
          let x = ca rt in
          let y = cb rt in
          if y = 0 then invalid_arg "Expr.eval: modulo by zero"
          else
            let m = x mod y in
            if m < 0 then m + abs y else m
    | Expr.Min (a, b) ->
        let ca = compile_expr a and cb = compile_expr b in
        fun rt ->
          let x = ca rt in
          let y = cb rt in
          min x y
    | Expr.Max (a, b) ->
        let ca = compile_expr a and cb = compile_expr b in
        fun rt ->
          let x = ca rt in
          let y = cb rt in
          max x y
  in
  compile_expr

(* Wrapper matching [eval_expr]'s trap. *)
let ceval (c : iexpr) (rt : runtime) : int =
  match c rt with
  | v -> v
  | exception Expr.Unbound_symbol s -> trap "unbound symbol '%s'" s

let compile_bexpr (sym : syms) (b : Bexpr.t) : runtime -> bool =
  let compile_expr = compile_expr sym in
  let rec go (b : Bexpr.t) : runtime -> bool =
    match b with
    | Bexpr.Bool v -> fun _ -> v
    | Bexpr.Cmp (op, a, c) ->
        let ca = compile_expr a and cc = compile_expr c in
        let f : int -> int -> bool =
          match op with
          | Bexpr.Eq -> ( = )
          | Bexpr.Ne -> ( <> )
          | Bexpr.Lt -> ( < )
          | Bexpr.Le -> ( <= )
          | Bexpr.Gt -> ( > )
          | Bexpr.Ge -> ( >= )
        in
        fun rt ->
          let x = ca rt in
          let y = cc rt in
          f x y
    | Bexpr.And (x, y) ->
        let cx = go x and cy = go y in
        fun rt -> cx rt && cy rt
    | Bexpr.Or (x, y) ->
        let cx = go x and cy = go y in
        fun rt -> cx rt || cy rt
    | Bexpr.Not x ->
        let cx = go x in
        fun rt -> not (cx rt)
  in
  go b

let compile_range_dim (sym : syms) (d : Range.dim) : crange =
  (compile_expr sym d.lo, compile_expr sym d.hi, compile_expr sym d.step)

(* Evaluation order (lo, hi, step) mirrors [eval_range_dim]. *)
let eval_crange (rt : runtime) ((clo, chi, cstep) : crange) : int * int * int =
  let lo = ceval clo rt in
  let hi = ceval chi rt in
  let step = ceval cstep rt in
  (lo, hi, step)

(* Compile-time connector binding: scalars become slots in the frame's
   value array; array bindings resolve to their container statically. *)
type cbind = CBScalar of int | CBArray of string

(* Compiled tasklet expression over the frame's value array. Mirrors [eval_texpr]
   arm by arm (same charge points, same traps, same evaluation order). *)
let compile_texpr (sym : syms) (benv : (string * cbind) list) :
    Texpr.t -> runtime -> Value.t array -> Value.t =
  let rec compile_texpr (e : Texpr.t) : runtime -> Value.t array -> Value.t =
    match e with
    | Texpr.TFloat f ->
        let v = Value.VFloat f in
        fun _ _ -> v
    | Texpr.TInt n ->
        let v = Value.VInt n in
        fun _ _ -> v
    | Texpr.TSym s -> (
        let id = sym s in
        fun rt _ ->
          match sym_id rt id s with
          | v -> VInt v
          | exception Expr.Unbound_symbol _ ->
              trap "tasklet references unbound symbol '%s'" s)
    | Texpr.TIn c -> (
        match List.assoc_opt c benv with
        | Some (CBScalar i) -> fun _ slots -> slots.(i)
        | Some (CBArray _) ->
            fun _ _ -> trap "connector '%s' is an array, not a scalar" c
        | None -> fun _ _ -> trap "unbound input connector '%s'" c)
    | Texpr.TIndex (c, idxs) -> (
        match List.assoc_opt c benv with
        | Some (CBArray data) ->
            let cidxs = List.map compile_texpr idxs in
            fun rt slots ->
              let indices =
                List.map (fun ci -> Value.as_int (ci rt slots)) cidxs
              in
              let lin = linearize rt data indices in
              Machine.load rt.machine (buffer_of rt data) lin
        | Some (CBScalar _) ->
            fun _ _ -> trap "connector '%s' is scalar; cannot index" c
        | None -> fun _ _ -> trap "unbound input connector '%s'" c)
    | Texpr.TBin (op, a, b) ->
        let ca = compile_texpr a and cb = compile_texpr b in
        fun rt slots ->
          let va = ca rt slots in
          let vb = cb rt slots in
          apply_binop rt.machine op va vb
    | Texpr.TCmp (op, a, b) ->
        let ca = compile_texpr a and cb = compile_texpr b in
        fun rt slots ->
          let va = ca rt slots in
          let vb = cb rt slots in
          apply_cmpop rt.machine op va vb
    | Texpr.TSelect (c, a, b) ->
        let cc = compile_texpr c in
        let ca = compile_texpr a in
        let cb = compile_texpr b in
        fun rt slots ->
          Machine.charge_op rt.machine Int_alu;
          if Value.as_bool (cc rt slots) then ca rt slots else cb rt slots
    | Texpr.TUn (`Neg, a) -> (
        let ca = compile_texpr a in
        fun rt slots ->
          match ca rt slots with
          | VFloat f ->
              Machine.charge_op rt.machine Fp_add;
              VFloat (-.f)
          | VInt n ->
              Machine.charge_op rt.machine Int_alu;
              VInt (-n))
    | Texpr.TUn (`Not, a) ->
        let ca = compile_texpr a in
        fun rt slots ->
          Machine.charge_op rt.machine Int_alu;
          Value.of_bool (not (Value.as_bool (ca rt slots)))
    | Texpr.TUn (`ToFloat, a) ->
        let ca = compile_texpr a in
        fun rt slots ->
          Machine.charge_op rt.machine Move;
          VFloat (Value.as_float (ca rt slots))
    | Texpr.TUn (`ToInt, a) ->
        let ca = compile_texpr a in
        fun rt slots ->
          Machine.charge_op rt.machine Move;
          apply_toint (ca rt slots)
    | Texpr.TCall (fname, args) ->
        let cargs = List.map compile_texpr args in
        fun rt slots ->
          let vargs = List.map (fun c -> Value.as_float (c rt slots)) cargs in
          apply_call rt.machine fname vargs
  in
  compile_texpr

(** A general memlet copy (any rank, any subset shape), with its ranges
    compiled. *)
type ccopy = {
  cc_src : string;
  cc_dst : string;
  cc_wcr : Sdfg.wcr option;
  cc_src_dims : crange list;
  cc_dst_dims : crange list;
}

(* Mirrors [exec_access_copies] for one edge: buffers first, then both
   subsets (lo, hi, step per dimension), then the element moves. *)
let exec_ccopy (rt : runtime) (cc : ccopy) : unit =
  let src_buf = buffer_of rt cc.cc_src in
  let dst_buf = buffer_of rt cc.cc_dst in
  let write_one dst_indices v =
    let lin = linearize rt cc.cc_dst dst_indices in
    match cc.cc_wcr with
    | None -> Machine.store rt.machine dst_buf lin v
    | Some w ->
        let old_v = Machine.load rt.machine dst_buf lin in
        Machine.store rt.machine dst_buf lin (apply_wcr rt w old_v v)
  in
  let src_dims = List.map (eval_crange rt) cc.cc_src_dims in
  let dst_dims = List.map (eval_crange rt) cc.cc_dst_dims in
  let single ds = List.for_all (fun (lo, hi, _) -> lo = hi) ds in
  if single src_dims && single dst_dims then begin
    let src_idx = List.map (fun (lo, _, _) -> lo) src_dims in
    let dst_idx = List.map (fun (lo, _, _) -> lo) dst_dims in
    let v = Machine.load rt.machine src_buf (linearize rt cc.cc_src src_idx) in
    write_one dst_idx v
  end
  else begin
    if List.length src_dims <> List.length dst_dims then
      trap "copy %s -> %s: subset rank mismatch" cc.cc_src cc.cc_dst;
    let rec iter src_prefix dst_prefix = function
      | [] ->
          let v =
            Machine.load rt.machine src_buf
              (linearize rt cc.cc_src (List.rev src_prefix))
          in
          write_one (List.rev dst_prefix) v
      | ((lo, hi, step), (dlo, _, dstep)) :: rest ->
          let i = ref lo and k = ref 0 in
          while !i <= hi do
            iter (!i :: src_prefix) ((dlo + (!k * dstep)) :: dst_prefix) rest;
            i := !i + step;
            incr k
          done
    in
    iter [] [] (List.combine src_dims dst_dims)
  end
