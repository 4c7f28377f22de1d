(** Lowering from the C subset to MLIR core dialects — the Polygeist stand-in.

    Output matches the shape the paper's pipeline starts from (§4):
    [func] + [scf] + [arith] + [math] + [memref], with the frontend quirks
    that motivate DCIR's recovery passes:

    - {b every mutable C scalar becomes a one-element [memref]} ("every SSA
      value becomes a scalar data container", §6.1) — reads and writes go
      through [memref.load]/[memref.store] until a pass promotes them;
    - {b descending loops are inverted} to ascending [scf.for] (the dialect's
      strictly-positive step, footnote 4) via [i = init - iv*s] remapping;
    - C [int] is lowered to [index] (a simplification over Polygeist's
      i32-with-casts; casts are cost-class [Move] noise applied uniformly,
      see DESIGN.md).

    Memory access order is preserved exactly by the inversion remap, so
    simulated cache behaviour is unchanged — the paper's deriche penalty is
    a hardware-prefetch asymmetry our model exposes separately (bench
    ablation) rather than through this lowering. *)

open C_ast
open Dcir_mlir

module Diag = Dcir_support.Diagnostics

let err fmt = Diag.fail ~code:"E-LOWER" ~phase:Diag.Frontend fmt

type binding =
  | Cell of Ir.value  (** memref<1xT> holding a mutable C scalar *)
  | Mem of Ir.value  (** array or malloc'd pointer *)
  | Iv of Ir.value  (** immutable loop induction value (index) *)

type ctx = {
  prog : program;
  modul : Ir.modul;
  mutable env : (string * binding) list;
  mutable ops : Ir.op list;  (** current block, reversed *)
}

let emit (ctx : ctx) (o : Ir.op) : Ir.value =
  ctx.ops <- o :: ctx.ops;
  match o.results with [ v ] -> v | _ -> Ir.new_value Types.Index (* unused *)

let emit_unit (ctx : ctx) (o : Ir.op) : unit = ctx.ops <- o :: ctx.ops

(* Build ops into a fresh list; restores the previous block afterwards. *)
let in_new_block (ctx : ctx) (f : unit -> unit) : Ir.op list =
  let saved = ctx.ops in
  ctx.ops <- [];
  f ();
  let ops = List.rev ctx.ops in
  ctx.ops <- saved;
  ops

let lookup (ctx : ctx) (name : string) : binding =
  match List.assoc_opt name ctx.env with
  | Some b -> b
  | None -> err "unbound variable '%s' during lowering" name

let bind (ctx : ctx) (name : string) (b : binding) : unit =
  ctx.env <- (name, b) :: ctx.env

(* ------------------------------------------------------------------ *)
(* Type mapping *)

let scalar_type : cty -> Types.t = function
  | TInt -> Types.Index
  | TFloat | TDouble -> Types.F64
  | t -> err "not a scalar C type: %a" pp_cty t

let rec mlir_type : cty -> Types.t = function
  | TInt -> Types.Index
  | TFloat | TDouble -> Types.F64
  | TPtr elem -> Types.MemRef (mlir_type elem, [ Types.Dynamic ])
  | TArr (elem, dims) ->
      Types.MemRef (mlir_type elem, List.map (fun d -> Types.Static d) dims)
  | TVoid -> err "void has no MLIR type"

(* ------------------------------------------------------------------ *)
(* Expression lowering *)

let const_index (ctx : ctx) (n : int) : Ir.value =
  emit ctx (Arith.const_int Types.Index n)

let const_f64 (ctx : ctx) (f : float) : Ir.value =
  emit ctx (Arith.const_float Types.F64 f)

let to_f64 (ctx : ctx) (v : Ir.value) : Ir.value =
  if Types.is_float v.vty then v else emit ctx (Arith.sitofp v Types.F64)

let to_index (ctx : ctx) (v : Ir.value) : Ir.value =
  if Types.equal v.vty Types.Index then v
  else if Types.is_float v.vty then emit ctx (Arith.fptosi v Types.Index)
  else emit ctx (Arith.index_cast v Types.Index)

(* i1 truthiness of a C scalar. *)
let truthy (ctx : ctx) (v : Ir.value) : Ir.value =
  if Types.equal v.vty Types.I1 then v
  else if Types.is_float v.vty then
    emit ctx (Arith.cmpf "one" v (const_f64 ctx 0.0))
  else emit ctx (Arith.cmpi "ne" v (const_index ctx 0))

let rec lower_expr (ctx : ctx) (e : expr) : Ir.value =
  match e with
  | EInt n -> const_index ctx n
  | EFloat f -> const_f64 ctx f
  | EVar name -> (
      match lookup ctx name with
      | Cell cell -> emit ctx (Memref_d.load cell [ const_index ctx 0 ])
      | Mem mr -> mr
      | Iv iv -> iv)
  | EIndex (EVar name, idxs) -> (
      let idx_vs = List.map (fun i -> to_index ctx (lower_expr ctx i)) idxs in
      match lookup ctx name with
      | Mem mr -> emit ctx (Memref_d.load mr idx_vs)
      | Cell _ | Iv _ -> err "cannot index scalar '%s'" name)
  | EIndex _ -> err "array base must be a variable"
  | EUnop (Neg, e) ->
      let v = lower_expr ctx e in
      if Types.is_float v.vty then emit ctx (Arith.negf v)
      else emit ctx (Arith.subi (const_index ctx 0) v)
  | EUnop (Not, e) ->
      let v = truthy ctx (lower_expr ctx e) in
      (* !x  ==  x xor 1  on i1 *)
      let one = emit ctx (Arith.const_int Types.I1 1) in
      emit ctx (Arith.xori v one)
  | EBinop ((LAnd | LOr) as op, a, b) ->
      let va = truthy ctx (lower_expr ctx a) in
      let vb = truthy ctx (lower_expr ctx b) in
      let o = if op = LAnd then Arith.andi va vb else Arith.ori va vb in
      emit ctx o
  | EBinop (((Lt | Le | Gt | Ge | Eq | Ne) as op), a, b) ->
      let va = lower_expr ctx a and vb = lower_expr ctx b in
      lower_cmp ctx op va vb
  | EBinop (Mod, a, b) ->
      let va = to_index ctx (lower_expr ctx a) in
      let vb = to_index ctx (lower_expr ctx b) in
      emit ctx (Arith.remsi va vb)
  | EBinop (((Add | Sub | Mul | Div) as op), a, b) ->
      let va = lower_expr ctx a and vb = lower_expr ctx b in
      lower_arith ctx op va vb
  | ECond (c, a, b) ->
      let vc = truthy ctx (lower_expr ctx c) in
      let va = lower_expr ctx a and vb = lower_expr ctx b in
      let va, vb =
        if Types.is_float va.vty || Types.is_float vb.vty then
          (to_f64 ctx va, to_f64 ctx vb)
        else (va, vb)
      in
      emit ctx (Arith.select vc va vb)
  | ECast ((TInt | TFloat | TDouble) as ty, e) ->
      let v = lower_expr ctx e in
      if is_float_ty ty then to_f64 ctx v else to_index ctx v
  | ECast (t, _) -> err "unsupported cast to %a" pp_cty t
  | EMalloc (elem, count) ->
      let n = to_index ctx (lower_expr ctx count) in
      emit ctx (Memref_d.alloc (mlir_type elem) [ Types.Dynamic ] [ n ])
  | ECall (name, args) -> lower_call ctx name args

and lower_cmp ctx op va vb : Ir.value =
  if Types.is_float va.Ir.vty || Types.is_float vb.Ir.vty then
    let pred =
      match op with
      | Lt -> "olt" | Le -> "ole" | Gt -> "ogt" | Ge -> "oge"
      | Eq -> "oeq" | _ -> "one"
    in
    emit ctx (Arith.cmpf pred (to_f64 ctx va) (to_f64 ctx vb))
  else
    let pred =
      match op with
      | Lt -> "slt" | Le -> "sle" | Gt -> "sgt" | Ge -> "sge"
      | Eq -> "eq" | _ -> "ne"
    in
    emit ctx (Arith.cmpi pred (to_index ctx va) (to_index ctx vb))

and lower_arith ctx op va vb : Ir.value =
  if Types.is_float va.Ir.vty || Types.is_float vb.Ir.vty then
    let a = to_f64 ctx va and b = to_f64 ctx vb in
    emit ctx
      (match op with
      | Add -> Arith.addf a b
      | Sub -> Arith.subf a b
      | Mul -> Arith.mulf a b
      | _ -> Arith.divf a b)
  else
    let a = to_index ctx va and b = to_index ctx vb in
    emit ctx
      (match op with
      | Add -> Arith.addi a b
      | Sub -> Arith.subi a b
      | Mul -> Arith.muli a b
      | _ -> Arith.divsi a b)

and lower_call ctx name args : Ir.value =
  match Math_d.of_c_name name with
  | Some f ->
      let vs = List.map (fun a -> to_f64 ctx (lower_expr ctx a)) args in
      emit ctx (Math_d.call f vs)
  | None -> (
      match List.find_opt (fun f -> String.equal f.name name) ctx.prog.funcs with
      | None -> err "call to unknown function '%s'" name
      | Some callee ->
          let arg_vs =
            List.map2
              (fun a (_, pty) ->
                let v = lower_expr ctx a in
                match pty with
                | TInt -> to_index ctx v
                | TFloat | TDouble -> to_f64 ctx v
                | _ -> v)
              args callee.params
          in
          let ret_tys =
            match callee.ret with TVoid -> [] | t -> [ scalar_type t ]
          in
          let call = Func_d.call name arg_vs ret_tys in
          if ret_tys = [] then begin
            emit_unit ctx call;
            const_index ctx 0 (* placeholder; void calls appear in SExpr *)
          end
          else emit ctx call)

(* ------------------------------------------------------------------ *)
(* Statement lowering *)

let scalar_cell (ctx : ctx) (ty : cty) (name : string) : Ir.value =
  let mty = scalar_type ty in
  let cell = emit ctx (Memref_d.alloca mty [ Types.Static 1 ] []) in
  cell.hint <- name;
  cell

let store_scalar (ctx : ctx) (cell : Ir.value) (v : Ir.value) : unit =
  let v =
    if Types.is_float (Types.elem_type cell.vty) then to_f64 ctx v
    else to_index ctx v
  in
  emit_unit ctx (Memref_d.store v cell [ const_index ctx 0 ])

let apply_compound ctx op (old_v : Ir.value) (rhs : Ir.value) : Ir.value =
  match op with
  | OpAssign -> rhs
  | OpAddAssign -> lower_arith ctx Add old_v rhs
  | OpSubAssign -> lower_arith ctx Sub old_v rhs
  | OpMulAssign -> lower_arith ctx Mul old_v rhs
  | OpDivAssign -> lower_arith ctx Div old_v rhs

let rec lower_stmt (ctx : ctx) (s : stmt) : unit =
  match s with
  | SDecl (ty, name, init) -> (
      match ty with
      | TInt | TFloat | TDouble ->
          let cell = scalar_cell ctx ty name in
          bind ctx name (Cell cell);
          Option.iter
            (fun e -> store_scalar ctx cell (lower_expr ctx e))
            init
      | TArr (elem, dims) ->
          let mr =
            emit ctx
              (Memref_d.alloca (mlir_type elem)
                 (List.map (fun d -> Types.Static d) dims)
                 [])
          in
          mr.hint <- name;
          bind ctx name (Mem mr);
          if init <> None then err "array initializers are not supported"
      | TPtr _ -> (
          match init with
          | Some (EMalloc _ as e) ->
              let mr = lower_expr ctx e in
              mr.hint <- name;
              bind ctx name (Mem mr)
          | Some _ -> err "pointer '%s' must be initialized with malloc" name
          | None -> err "pointer '%s' must be initialized at declaration" name)
      | TVoid -> err "cannot declare void variable '%s'" name)
  | SAssign (EVar name, op, rhs) -> (
      match (lookup ctx name, op, rhs) with
      | Cell cell, _, _ ->
          let rhs_v = lower_expr ctx rhs in
          let final =
            if op = OpAssign then rhs_v
            else
              let old_v = emit ctx (Memref_d.load cell [ const_index ctx 0 ]) in
              apply_compound ctx op old_v rhs_v
          in
          store_scalar ctx cell final
      | Mem _, OpAssign, (EMalloc _ as e) ->
          let mr = lower_expr ctx e in
          mr.hint <- name;
          bind ctx name (Mem mr)
      | Mem _, _, _ -> err "unsupported pointer assignment to '%s'" name
      | Iv _, _, _ -> err "cannot assign to loop variable '%s'" name)
  | SAssign (EIndex (EVar name, idxs), op, rhs) -> (
      match lookup ctx name with
      | Mem mr ->
          let idx_vs = List.map (fun i -> to_index ctx (lower_expr ctx i)) idxs in
          let rhs_v = lower_expr ctx rhs in
          let final =
            if op = OpAssign then rhs_v
            else
              let old_v = emit ctx (Memref_d.load mr idx_vs) in
              apply_compound ctx op old_v rhs_v
          in
          let final =
            if Types.is_float (Types.elem_type mr.vty) then to_f64 ctx final
            else to_index ctx final
          in
          emit_unit ctx (Memref_d.store final mr idx_vs)
      | _ -> err "cannot index scalar '%s'" name)
  | SAssign _ -> err "unsupported assignment target"
  | SExpr e ->
      ignore (lower_expr ctx e)
  | SIf (c, then_s, else_s) ->
      let cv = truthy ctx (lower_expr ctx c) in
      let saved_env = ctx.env in
      let then_ops =
        in_new_block ctx (fun () ->
            List.iter (lower_stmt ctx) then_s;
            emit_unit ctx (Scf_d.yield []))
      in
      ctx.env <- saved_env;
      let else_ops =
        in_new_block ctx (fun () ->
            List.iter (lower_stmt ctx) else_s;
            emit_unit ctx (Scf_d.yield []))
      in
      ctx.env <- saved_env;
      emit_unit ctx (Scf_d.if_ cv ~result_tys:[] ~then_ops ~else_ops)
  | SFor (hdr, body) -> lower_for ctx hdr body
  | SWhile _ ->
      err "while loops are outside the supported subset (use for loops)"
  | SReturn _ -> err "return must be the final statement of the function"
  | SFree name -> (
      match lookup ctx name with
      | Mem mr -> emit_unit ctx (Memref_d.dealloc mr)
      | _ -> err "free of non-pointer '%s'" name)
  | SBlock ss ->
      let saved_env = ctx.env in
      List.iter (lower_stmt ctx) ss;
      ctx.env <- saved_env

(* Canonical for-loops. Ascending loops map directly to scf.for; descending
   loops are inverted: iv in [0, trip), i = init - iv*s. *)
and lower_for (ctx : ctx) (hdr : for_header) (body : stmt list) : unit =
  let init_v = to_index ctx (lower_expr ctx hdr.init) in
  let bound_v = to_index ctx (lower_expr ctx hdr.bound) in
  let saved_env = ctx.env in
  if hdr.step > 0 then begin
    let lb = init_v in
    let ub =
      match hdr.cmp with
      | Lt -> bound_v
      | Le -> emit ctx (Arith.addi bound_v (const_index ctx 1))
      | _ -> err "ascending loop with descending comparison"
    in
    let step_v = const_index ctx hdr.step in
    let body_ops_of iv =
      in_new_block ctx (fun () ->
          bind ctx hdr.var (Iv iv);
          List.iter (lower_stmt ctx) body;
          emit_unit ctx (Scf_d.yield []))
    in
    let loop =
      Scf_d.for_ ~lb ~ub ~step:step_v ~iter_inits:[] (fun iv _ ->
          body_ops_of iv)
    in
    (Scf_d.loop_iv loop).hint <- hdr.var;
    ctx.env <- saved_env;
    emit_unit ctx loop
  end
  else begin
    (* trip = (init - bound + extra) / s with extra = s (Ge) or s-1 (Gt):
       exact for all residues, yielding <= 0 when the loop never runs. *)
    let s = -hdr.step in
    let extra = match hdr.cmp with Ge -> s | Gt -> s - 1 | _ -> err "descending loop with ascending comparison" in
    let diff = emit ctx (Arith.subi init_v bound_v) in
    let diff = emit ctx (Arith.addi diff (const_index ctx extra)) in
    let trip = emit ctx (Arith.divsi diff (const_index ctx s)) in
    let zero = const_index ctx 0 in
    let one = const_index ctx 1 in
    let body_ops_of iv =
      in_new_block ctx (fun () ->
          (* i = init - iv * s *)
          let scaled =
            if s = 1 then iv
            else emit ctx (Arith.muli iv (const_index ctx s))
          in
          let i = emit ctx (Arith.subi init_v scaled) in
          i.hint <- hdr.var;
          bind ctx hdr.var (Iv i);
          List.iter (lower_stmt ctx) body;
          emit_unit ctx (Scf_d.yield []))
    in
    let loop =
      Scf_d.for_ ~lb:zero ~ub:trip ~step:one ~iter_inits:[] (fun iv _ ->
          body_ops_of iv)
    in
    ctx.env <- saved_env;
    emit_unit ctx loop
  end

(* ------------------------------------------------------------------ *)
(* Functions and programs *)

let lower_func (ctx : ctx) (f : func_def) : Ir.func =
  let params =
    List.map (fun (n, t) -> (n, mlir_type t)) f.params
  in
  let ret_tys = match f.ret with TVoid -> [] | t -> [ scalar_type t ] in
  let param_vals = List.map (fun (n, t) -> Ir.new_value ~hint:n t) params in
  ctx.env <- [];
  ctx.ops <- [];
  (* Scalar params become cells too (C params are mutable locals). *)
  List.iter2
    (fun (name, cty) v ->
      match cty with
      | TInt | TFloat | TDouble ->
          let cell = scalar_cell ctx cty name in
          emit_unit ctx (Memref_d.store v cell [ const_index ctx 0 ]);
          bind ctx name (Cell cell)
      | _ -> bind ctx name (Mem v))
    f.params param_vals;
  (* Lower body; the trailing return is handled here. *)
  let rec go = function
    | [] -> if f.ret = TVoid then emit_unit ctx (Func_d.return_ []) else err "missing return statement in '%s'" f.name
    | [ SReturn None ] -> emit_unit ctx (Func_d.return_ [])
    | [ SReturn (Some e) ] ->
        let v = lower_expr ctx e in
        let v = if is_float_ty f.ret then to_f64 ctx v else to_index ctx v in
        emit_unit ctx (Func_d.return_ [ v ])
    | s :: rest ->
        lower_stmt ctx s;
        go rest
  in
  go f.body;
  let body_ops = List.rev ctx.ops in
  {
    Ir.fname = f.name;
    fparams = param_vals;
    fret = ret_tys;
    fbody = Some (Ir.new_region ~args:param_vals ~ops:body_ops ());
    fattrs = [];
  }

(** Parse, type-check and lower a C source string into an MLIR module. *)
let compile (src : string) : Ir.modul =
  let prog = C_parser.parse_program src in
  let prog = C_sema.check prog in
  let modul = Ir.new_module () in
  let ctx = { prog; modul; env = []; ops = [] } in
  modul.funcs <- List.map (lower_func ctx) prog.funcs;
  Verifier.verify_exn modul;
  modul
