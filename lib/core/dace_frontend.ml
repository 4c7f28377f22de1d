(** The DaCe C frontend baseline (§2.2, §7.2; Calotoiu et al. [6]).

    Translates the C subset {e directly} to an SDFG, without any
    control-centric optimization:

    - every assignment statement becomes one state holding a single
      {e opaque C tasklet} — an indivisible unit whose body is the whole
      right-hand side. Memlets are recovered by symbolic analysis of the
      index expressions, but the computation itself cannot be inspected or
      split, which is exactly why this baseline misses the syrk hoisting
      opportunity (Fig 7): [alpha * A[i][k]] is recomputed in every
      iteration of the innermost loop;
    - loops become guard-pattern state loops; descending loops keep their
      direction (no scf-style inversion — the semantic information the
      Polygeist path loses, §7.2);
    - local arrays are stack transients, [malloc] results heap transients.

    The resulting SDFG runs through the same data-centric pipeline as DCIR. *)

open Dcir_cfront.C_ast
open Dcir_sdfg
open Dcir_symbolic
module C_sema = Dcir_cfront.C_sema
module C_parser = Dcir_cfront.C_parser
module Ir = Dcir_mlir.Ir
module Types = Dcir_mlir.Types

module Diag = Dcir_support.Diagnostics

let err fmt = Diag.fail ~code:"E-DACE-FRONTEND" ~phase:Diag.Frontend fmt

type binding =
  | VSym of string  (** loop induction symbol *)
  | VScalar of string  (** scalar container *)
  | VArray of string  (** array/pointer container *)

type fctx = {
  sdfg : Sdfg.t;
  mutable env : (string * binding) list;
  mutable tail : string;
  mutable loop_depth : int;
  gen : Dcir_support.Id_gen.t;
  mutable statements : int;  (** emitted so far: numbers the tasklets *)
}

let fresh_label ctx prefix = Dcir_support.Id_gen.fresh ctx.gen prefix

let seq_state (ctx : fctx) (prefix : string) : Sdfg.state =
  let st = Sdfg.add_state ctx.sdfg (fresh_label ctx prefix) in
  Sdfg.add_istate_edge ctx.sdfg ~src:ctx.tail ~dst:st.s_label ();
  ctx.tail <- st.s_label;
  st

let lookup ctx name =
  match List.assoc_opt name ctx.env with
  | Some b -> b
  | None -> err "unbound variable '%s'" name

let dtype_of_cty (t : cty) : Sdfg.dtype =
  if is_float_ty (elem_cty t) then Sdfg.DFloat else Sdfg.DInt

(* ------------------------------------------------------------------ *)
(* Index expressions -> symbolic expressions *)

let rec index_expr (ctx : fctx) (e : expr) : Expr.t =
  match e with
  | EInt n -> Expr.int n
  | EVar v -> (
      match lookup ctx v with
      | VSym s -> Expr.sym s
      | VScalar c -> Expr.sym c (* pseudo-symbol; promoted later *)
      | VArray _ -> err "array '%s' used as index" v)
  | EBinop (Add, a, b) -> Expr.add (index_expr ctx a) (index_expr ctx b)
  | EBinop (Sub, a, b) -> Expr.sub (index_expr ctx a) (index_expr ctx b)
  | EBinop (Mul, a, b) -> Expr.mul (index_expr ctx a) (index_expr ctx b)
  | EBinop (Div, a, b) -> Expr.div (index_expr ctx a) (index_expr ctx b)
  | EBinop (Mod, a, b) -> Expr.modulo (index_expr ctx a) (index_expr ctx b)
  | EUnop (Neg, a) -> Expr.neg (index_expr ctx a)
  | _ -> err "unsupported index expression"

(* ------------------------------------------------------------------ *)
(* Opaque tasklet construction for one statement *)

(* Scan an expression for its inputs: array element reads, scalar variable
   reads, and the loop symbols used as values. The expression is rewritten
   so each input becomes a fresh variable the tasklet body receives. *)
type stmt_inputs = {
  mutable elems : (string * string * Range.t * bool) list;
      (** synthetic var, container, subset, is_float *)
  mutable scalars : (string * string * bool) list;
      (** synthetic var, container, is_float *)
  mutable syms : (string * string) list;  (** synthetic var, symbol *)
}

let rec scan_expr (ctx : fctx) (acc : stmt_inputs) (e : expr) : expr =
  match e with
  | EInt _ | EFloat _ -> e
  | EVar v -> (
      match lookup ctx v with
      | VSym s ->
          let key = "_sym_" ^ s in
          if not (List.mem_assoc key acc.syms) then
            acc.syms <- acc.syms @ [ (key, s) ];
          EVar key
      | VScalar c ->
          let key = "_scl_" ^ c in
          if not (List.exists (fun (k, _, _) -> String.equal k key) acc.scalars)
          then begin
            let is_float =
              match Hashtbl.find_opt ctx.sdfg.containers c with
              | Some k -> k.dtype = Sdfg.DFloat
              | None -> false
            in
            acc.scalars <- acc.scalars @ [ (key, c, is_float) ]
          end;
          EVar key
      | VArray _ -> err "array '%s' used as a value" v)
  | EIndex (EVar a, idxs) -> (
      match lookup ctx a with
      | VArray container ->
          let subset = Range.of_indices (List.map (index_expr ctx) idxs) in
          let key = Printf.sprintf "_el%d" (List.length acc.elems) in
          let is_float =
            match Hashtbl.find_opt ctx.sdfg.containers container with
            | Some k -> k.dtype = Sdfg.DFloat
            | None -> true
          in
          acc.elems <- acc.elems @ [ (key, container, subset, is_float) ];
          EVar key
      | _ -> err "cannot index scalar '%s'" a)
  | EIndex _ -> err "array base must be a variable"
  | EUnop (op, a) -> EUnop (op, scan_expr ctx acc a)
  | EBinop (op, a, b) -> EBinop (op, scan_expr ctx acc a, scan_expr ctx acc b)
  | ECond (c, a, b) ->
      ECond (scan_expr ctx acc c, scan_expr ctx acc a, scan_expr ctx acc b)
  | ECall (f, args) -> ECall (f, List.map (scan_expr ctx acc) args)
  | ECast (t, a) -> ECast (t, scan_expr ctx acc a)
  | EMalloc _ -> err "malloc must appear in a declaration"

let empty_prog : program = { funcs = [] }

(* Build the opaque tasklet body: a standalone MLIR function computing the
   rewritten expression from scalar parameters. *)
let build_opaque_body ~(serial : int) (inputs : stmt_inputs) (value_cty : cty)
    (e : expr) : Ir.func =
  let param_of_cty (t : cty) =
    if is_float_ty t then Types.F64 else Types.Index
  in
  let params =
    List.map (fun (k, _) -> (k, Types.Index)) inputs.syms
    @ List.map
        (fun (k, _, _, f) -> (k, if f then Types.F64 else Types.Index))
        inputs.elems
    @ List.map
        (fun (k, _, f) -> (k, if f then Types.F64 else Types.Index))
        inputs.scalars
  in
  ignore param_of_cty;
  let param_vals =
    List.map (fun (n, t) -> Ir.new_value ~hint:n t) params
  in
  let pctx =
    {
      Dcir_cfront.Polygeist.prog = empty_prog;
      modul = Ir.new_module ();
      env =
        List.map2
          (fun (n, _) v -> (n, Dcir_cfront.Polygeist.Iv v))
          params param_vals;
      ops = [];
    }
  in
  let result = Dcir_cfront.Polygeist.lower_expr pctx e in
  let result =
    if is_float_ty value_cty then Dcir_cfront.Polygeist.to_f64 pctx result
    else Dcir_cfront.Polygeist.to_index pctx result
  in
  let ops = List.rev pctx.ops @ [ Ir.new_op "func.return" ~operands:[ result ] ] in
  {
    Ir.fname = Printf.sprintf "c_tasklet_%d" serial;
    fparams = param_vals;
    fret = [ (if is_float_ty value_cty then Types.F64 else Types.Index) ];
    fbody = Some (Ir.new_region ~args:param_vals ~ops ());
    fattrs = [];
  }

(* Emit one statement-state: an opaque tasklet computing [rhs] (already
   scanned) writing to [target]. The statement's serial names both the
   tasklet and its unit. *)
let emit_statement (ctx : fctx) (inputs : stmt_inputs) (value_cty : cty)
    (rhs : expr) ~(target : string) ~(subset : Range.t)
    ~(wcr : Sdfg.wcr option) : unit =
  let st = seq_state ctx "stmt" in
  let g = st.s_graph in
  ctx.statements <- ctx.statements + 1;
  let serial = ctx.statements in
  let elem_conns = List.map (fun (k, _, _, _) -> k) inputs.elems in
  let scalar_conns = List.map (fun (k, _, _) -> k) inputs.scalars in
  let t =
    {
      Sdfg.tname = Printf.sprintf "c%d" serial;
      t_inputs = elem_conns @ scalar_conns;
      t_outputs = [ "_out" ];
      t_syms = List.map snd inputs.syms;
      code = Sdfg.Opaque (build_opaque_body ~serial inputs value_cty rhs);
      t_overhead = 0.0 (* inlined by DaCe's code generator *);
    }
  in
  let tn = Sdfg.add_node g (Sdfg.TaskletN t) in
  let read_nodes = Hashtbl.create 4 in
  let read_node c =
    match Hashtbl.find_opt read_nodes c with
    | Some n -> n
    | None ->
        let n = Sdfg.add_node g (Sdfg.Access c) in
        Hashtbl.replace read_nodes c n;
        n
  in
  List.iter
    (fun (conn, container, subset, _) ->
      ignore
        (Sdfg.add_edge g ~dst_conn:conn
           ~memlet:{ Sdfg.data = container; subset; wcr = None; other = None }
           (read_node container) tn))
    inputs.elems;
  List.iter
    (fun (conn, container, _) ->
      ignore
        (Sdfg.add_edge g ~dst_conn:conn
           ~memlet:{ Sdfg.data = container; subset = []; wcr = None; other = None }
           (read_node container) tn))
    inputs.scalars;
  let wn = Sdfg.add_node g (Sdfg.Access target) in
  ignore
    (Sdfg.add_edge g ~src_conn:"_out"
       ~memlet:{ Sdfg.data = target; subset; wcr; other = None }
       tn wn);
  (* Order the write after reads of the same container. *)
  (match Hashtbl.find_opt read_nodes target with
  | Some rn -> ignore (Sdfg.add_edge g rn wn)
  | None -> ())

(* The value type of an expression (float vs int) using sema typing against
   an environment snapshot; approximated from structure. *)
let rec value_cty (ctx : fctx) (e : expr) : cty =
  match e with
  | EFloat _ -> TDouble
  | EInt _ -> TInt
  | ECall _ -> TDouble
  | EVar v -> (
      match lookup ctx v with
      | VSym _ -> TInt
      | VScalar c | VArray c -> (
          match Hashtbl.find_opt ctx.sdfg.containers c with
          | Some k -> if k.dtype = Sdfg.DFloat then TDouble else TInt
          | None -> TInt))
  | EIndex (base, _) -> value_cty ctx base
  | EUnop (Not, _) -> TInt
  | EUnop (Neg, a) -> value_cty ctx a
  | EBinop ((Lt | Le | Gt | Ge | Eq | Ne | LAnd | LOr | Mod), _, _) -> TInt
  | EBinop (_, a, b) ->
      if
        is_float_ty (value_cty ctx a) || is_float_ty (value_cty ctx b)
      then TDouble
      else TInt
  | ECond (_, a, b) ->
      if is_float_ty (value_cty ctx a) || is_float_ty (value_cty ctx b) then
        TDouble
      else TInt
  | ECast (t, _) -> t
  | EMalloc (t, _) -> TPtr t

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec lower_stmt (ctx : fctx) (s : stmt) : unit =
  match s with
  | SDecl (ty, name, init) -> (
      match ty with
      | TInt | TFloat | TDouble ->
          let cname = Sdfg.fresh_name ctx.sdfg ("c_" ^ name) in
          ignore
            (Sdfg.add_container ctx.sdfg ~transient:true
               ~storage:Sdfg.Register ~dtype:(dtype_of_cty ty) ~shape:[] cname);
          ctx.env <- (name, VScalar cname) :: ctx.env;
          Option.iter
            (fun e -> lower_stmt ctx (SAssign (EVar name, OpAssign, e)))
            init
      | TArr (elem, dims) ->
          let cname = Sdfg.fresh_name ctx.sdfg ("c_" ^ name) in
          ignore
            (Sdfg.add_container ctx.sdfg ~transient:true ~storage:Sdfg.Stack
               ~dtype:(dtype_of_cty elem)
               ~shape:(List.map Expr.int dims) cname);
          ctx.env <- (name, VArray cname) :: ctx.env
      | TPtr _ -> (
          match init with
          | Some (EMalloc (elem, count)) ->
              let cname = Sdfg.fresh_name ctx.sdfg ("c_" ^ name) in
              let size = index_expr ctx count in
              let c =
                Sdfg.add_container ctx.sdfg ~transient:true ~storage:Sdfg.Heap
                  ~alloc_in_loop:(ctx.loop_depth > 0)
                  ~dtype:(dtype_of_cty elem) ~shape:[ size ] cname
              in
              (* Allocation charge point. *)
              let st = seq_state ctx "alloc" in
              c.alloc_state <- Some st.s_label;
              ctx.env <- (name, VArray cname) :: ctx.env
          | _ -> err "pointer '%s' must be initialized with malloc" name)
      | TVoid -> err "void declaration")
  | SAssign (lhs, op, rhs) -> (
      let inputs = { elems = []; scalars = []; syms = [] } in
      let rhs_cty = value_cty ctx rhs in
      let compound_combine scanned_lhs scanned_rhs =
        match op with
        | OpAssign -> scanned_rhs
        | OpAddAssign -> EBinop (Add, scanned_lhs, scanned_rhs)
        | OpSubAssign -> EBinop (Sub, scanned_lhs, scanned_rhs)
        | OpMulAssign -> EBinop (Mul, scanned_lhs, scanned_rhs)
        | OpDivAssign -> EBinop (Div, scanned_lhs, scanned_rhs)
      in
      match lhs with
      | EVar name -> (
          match lookup ctx name with
          | VScalar cname ->
              let target_cty = value_cty ctx lhs in
              let scanned_rhs = scan_expr ctx inputs rhs in
              let body =
                if op = OpAssign then scanned_rhs
                else compound_combine (scan_expr ctx inputs lhs) scanned_rhs
              in
              ignore rhs_cty;
              emit_statement ctx inputs target_cty body ~target:cname
                ~subset:[] ~wcr:None
          | _ -> err "unsupported assignment to '%s'" name)
      | EIndex (EVar name, idxs) -> (
          match lookup ctx name with
          | VArray cname ->
              let subset = Range.of_indices (List.map (index_expr ctx) idxs) in
              let target_cty = value_cty ctx lhs in
              let scanned_rhs = scan_expr ctx inputs rhs in
              let body =
                if op = OpAssign then scanned_rhs
                else compound_combine (scan_expr ctx inputs lhs) scanned_rhs
              in
              emit_statement ctx inputs target_cty body ~target:cname ~subset
                ~wcr:None
          | _ -> err "cannot index '%s'" name)
      | _ -> err "unsupported assignment target")
  | SExpr _ -> err "expression statements are not supported by this frontend"
  | SIf (cond, then_s, else_s) ->
      (* Condition into an int scalar, then branch on it. *)
      let cname = Sdfg.fresh_name ctx.sdfg "c_cond" in
      ignore
        (Sdfg.add_container ctx.sdfg ~transient:true ~storage:Sdfg.Register
           ~dtype:Sdfg.DInt ~shape:[] cname);
      let inputs = { elems = []; scalars = []; syms = [] } in
      let scanned = scan_expr ctx inputs cond in
      let as_bool = ECond (scanned, EInt 1, EInt 0) in
      emit_statement ctx inputs TInt as_bool ~target:cname ~subset:[] ~wcr:None;
      let fork = ctx.tail in
      let saved_env = ctx.env in
      let then_entry = Sdfg.add_state ctx.sdfg (fresh_label ctx "then") in
      Sdfg.add_istate_edge ctx.sdfg
        ~cond:(Bexpr.ne (Expr.sym cname) Expr.zero)
        ~src:fork ~dst:then_entry.s_label ();
      ctx.tail <- then_entry.s_label;
      List.iter (lower_stmt ctx) then_s;
      ctx.env <- saved_env;
      let join = Sdfg.add_state ctx.sdfg (fresh_label ctx "endif") in
      Sdfg.add_istate_edge ctx.sdfg ~src:ctx.tail ~dst:join.s_label ();
      let else_entry = Sdfg.add_state ctx.sdfg (fresh_label ctx "else") in
      Sdfg.add_istate_edge ctx.sdfg
        ~cond:(Bexpr.eq (Expr.sym cname) Expr.zero)
        ~src:fork ~dst:else_entry.s_label ();
      ctx.tail <- else_entry.s_label;
      List.iter (lower_stmt ctx) else_s;
      ctx.env <- saved_env;
      Sdfg.add_istate_edge ctx.sdfg ~src:ctx.tail ~dst:join.s_label ();
      ctx.tail <- join.s_label
  | SFor (hdr, body) ->
      let sym = Dcir_support.Id_gen.fresh ctx.gen hdr.var in
      let init = index_expr ctx hdr.init in
      let bound = index_expr ctx hdr.bound in
      let cond =
        match hdr.cmp with
        | Lt -> Bexpr.lt (Expr.sym sym) bound
        | Le -> Bexpr.le (Expr.sym sym) bound
        | Gt -> Bexpr.gt (Expr.sym sym) bound
        | Ge -> Bexpr.ge (Expr.sym sym) bound
        | _ -> err "invalid loop comparison"
      in
      let guard = Sdfg.add_state ctx.sdfg (fresh_label ctx "guard") in
      Sdfg.add_istate_edge ctx.sdfg ~assign:[ (sym, init) ] ~src:ctx.tail
        ~dst:guard.s_label ();
      let body_entry = Sdfg.add_state ctx.sdfg (fresh_label ctx "body") in
      Sdfg.add_istate_edge ctx.sdfg ~cond ~src:guard.s_label
        ~dst:body_entry.s_label ();
      let saved_env = ctx.env in
      ctx.env <- (hdr.var, VSym sym) :: ctx.env;
      ctx.tail <- body_entry.s_label;
      ctx.loop_depth <- ctx.loop_depth + 1;
      List.iter (lower_stmt ctx) body;
      ctx.loop_depth <- ctx.loop_depth - 1;
      ctx.env <- saved_env;
      Sdfg.add_istate_edge ctx.sdfg
        ~assign:[ (sym, Expr.add (Expr.sym sym) (Expr.int hdr.step)) ]
        ~src:ctx.tail ~dst:guard.s_label ();
      let exit_s = Sdfg.add_state ctx.sdfg (fresh_label ctx "endfor") in
      Sdfg.add_istate_edge ctx.sdfg
        ~cond:(Bexpr.simplify (Bexpr.Not cond))
        ~src:guard.s_label ~dst:exit_s.s_label ();
      ctx.tail <- exit_s.s_label
  | SWhile _ -> err "while loops are outside the supported subset"
  | SReturn _ -> err "return must be the final statement"
  | SFree _ -> () (* implicit lifetime *)
  | SBlock ss ->
      let saved = ctx.env in
      List.iter (lower_stmt ctx) ss;
      ctx.env <- saved

(* ------------------------------------------------------------------ *)

(** Translate one C function directly to an SDFG. *)
let compile_func (f : func_def) : Sdfg.t =
  let sdfg = Sdfg.create f.name in
  let ctx =
    {
      sdfg;
      env = [];
      tail = "";
      loop_depth = 0;
      gen = Dcir_support.Id_gen.create ();
      statements = 0;
    }
  in
  (* Parameters. *)
  List.iter
    (fun (pname, pty) ->
      let cname = "_" ^ pname in
      match pty with
      | TArr (elem, dims) ->
          ignore
            (Sdfg.add_container sdfg ~transient:false ~storage:Sdfg.Heap
               ~dtype:(dtype_of_cty elem)
               ~shape:(List.map Expr.int dims) cname);
          ctx.env <- (pname, VArray cname) :: ctx.env
      | TPtr elem ->
          let s = Dcir_support.Id_gen.fresh ctx.gen "s" in
          sdfg.arg_symbols <- sdfg.arg_symbols @ [ s ];
          ignore
            (Sdfg.add_container sdfg ~transient:false ~storage:Sdfg.Heap
               ~dtype:(dtype_of_cty elem)
               ~shape:[ Expr.sym s ] cname);
          ctx.env <- (pname, VArray cname) :: ctx.env
      | TInt | TFloat | TDouble ->
          ignore
            (Sdfg.add_container sdfg ~transient:false ~storage:Sdfg.Register
               ~dtype:(dtype_of_cty pty) ~shape:[] cname);
          ctx.env <- (pname, VScalar cname) :: ctx.env
      | TVoid -> err "unsupported parameter type")
    f.params;
  sdfg.param_order <- List.map (fun (p, _) -> "_" ^ p) f.params;
  let entry = Sdfg.add_state sdfg "init" in
  ctx.tail <- entry.s_label;
  (* Body with trailing return. *)
  let rec go = function
    | [] -> ()
    | [ SReturn None ] -> ()
    | [ SReturn (Some e) ] -> (
        match e with
        | EVar v when (match lookup ctx v with VScalar _ -> true | _ -> false)
          -> (
            match lookup ctx v with
            | VScalar c -> sdfg.return_scalar <- Some c
            | _ -> ())
        | e ->
            let rname = Sdfg.fresh_name sdfg "c_ret" in
            ignore
              (Sdfg.add_container sdfg ~transient:true ~storage:Sdfg.Register
                 ~dtype:(dtype_of_cty (value_cty ctx e)) ~shape:[] rname);
            ctx.env <- ("__ret", VScalar rname) :: ctx.env;
            lower_stmt ctx (SAssign (EVar "__ret", OpAssign, e));
            sdfg.return_scalar <- Some rname)
    | s :: rest ->
        lower_stmt ctx s;
        go rest
  in
  go f.body;
  sdfg

(** Parse, check, and translate; [entry] selects the function. *)
let compile (src : string) ~(entry : string) : Sdfg.t =
  let prog = C_sema.check (C_parser.parse_program src) in
  match List.find_opt (fun f -> String.equal f.name entry) prog.funcs with
  | Some f -> compile_func f
  | None -> err "no function '%s'" entry
