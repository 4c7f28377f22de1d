(** Semantic checks and normalization for the C subset.

    Responsibilities:
    - scope/type checking of every expression and statement;
    - normalizing un-cast [malloc] calls in pointer initializers into
      {!C_ast.EMalloc} using the declared element type;
    - rejecting constructs the lowering does not support, with source-level
      messages (rather than failing inside the MLIR builder). *)

open C_ast

module Diag = Dcir_support.Diagnostics

let err fmt = Diag.fail ~code:"E-SEMA" ~phase:Diag.Frontend fmt

type scope = (string, cty) Hashtbl.t list

let rec lookup_var (sc : scope) (name : string) : cty option =
  match sc with
  | [] -> None
  | tbl :: rest -> (
      match Hashtbl.find_opt tbl name with
      | Some t -> Some t
      | None -> lookup_var rest name)

let declare (sc : scope) (name : string) (ty : cty) : unit =
  match sc with
  | [] -> assert false
  | tbl :: _ -> Hashtbl.replace tbl name ty

(* Result type of a checked expression. *)
let rec type_of (prog : program) (sc : scope) (e : expr) : cty =
  match e with
  | EInt _ -> TInt
  | EFloat _ -> TDouble
  | EVar name -> (
      match lookup_var sc name with
      | Some t -> t
      | None -> err "use of undeclared variable '%s'" name)
  | EIndex (base, idxs) -> (
      List.iter
        (fun i ->
          match type_of prog sc i with
          | TInt -> ()
          | t -> err "array index must be int, got %a" pp_cty t)
        idxs;
      match type_of prog sc base with
      | TArr (elem, dims) ->
          if List.length idxs <> List.length dims then
            err "indexing %d-d array with %d indices" (List.length dims)
              (List.length idxs);
          elem
      | TPtr elem ->
          if List.length idxs <> 1 then err "pointer takes exactly one index";
          elem
      | t -> err "cannot index a value of type %a" pp_cty t)
  | EUnop (Neg, e) -> (
      match type_of prog sc e with
      | (TInt | TFloat | TDouble) as t -> t
      | t -> err "cannot negate %a" pp_cty t)
  | EUnop (Not, e) -> (
      match type_of prog sc e with
      | TInt | TFloat | TDouble -> TInt
      | t -> err "cannot apply ! to %a" pp_cty t)
  | EBinop ((LAnd | LOr | Lt | Le | Gt | Ge | Eq | Ne), a, b) ->
      ignore (arith_type prog sc a b);
      TInt
  | EBinop (Mod, a, b) -> (
      match (type_of prog sc a, type_of prog sc b) with
      | TInt, TInt -> TInt
      | ta, tb -> err "%% requires ints, got %a and %a" pp_cty ta pp_cty tb)
  | EBinop ((Add | Sub | Mul | Div), a, b) -> arith_type prog sc a b
  | ECond (c, a, b) ->
      ignore (type_of prog sc c);
      arith_type prog sc a b
  | ECall ("malloc", _) ->
      err "malloc must be cast or assigned to a typed pointer"
  | ECall (name, args) -> (
      match Dcir_mlir.Math_d.of_c_name name with
      | Some { Dcir_mlir.Math_d.arity; _ } ->
          if List.length args <> arity then
            err "%s expects %d argument(s)" name arity;
          List.iter (fun a -> ignore (type_of prog sc a)) args;
          TDouble
      | None -> (
          match List.find_opt (fun f -> String.equal f.name name) prog.funcs with
          | None -> err "call to undeclared function '%s'" name
          | Some f ->
              if List.length args <> List.length f.params then
                err "'%s' expects %d argument(s), got %d" name
                  (List.length f.params) (List.length args);
              List.iter2
                (fun a (_, pty) ->
                  let at = type_of prog sc a in
                  match (at, pty) with
                  | (TInt | TFloat | TDouble), (TInt | TFloat | TDouble) -> ()
                  | TArr (ea, da), TArr (eb, db) when ea = eb && da = db -> ()
                  | TPtr ea, TPtr eb when ea = eb -> ()
                  | TArr (ea, _), TPtr eb when ea = eb -> ()
                  | _ ->
                      err "argument type mismatch in call to '%s': %a vs %a"
                        name pp_cty at pp_cty pty)
                args f.params;
              f.ret))
  | ECast (ty, e) ->
      ignore (type_of prog sc e);
      ty
  | EMalloc (elem, count) -> (
      match type_of prog sc count with
      | TInt -> TPtr elem
      | t -> err "malloc element count must be int, got %a" pp_cty t)

and arith_type prog sc a b : cty =
  let ta = type_of prog sc a and tb = type_of prog sc b in
  match (ta, tb) with
  | TInt, TInt -> TInt
  | (TDouble | TFloat), (TInt | TFloat | TDouble)
  | TInt, (TDouble | TFloat) ->
      TDouble
  | _ -> err "invalid arithmetic operand types: %a and %a" pp_cty ta pp_cty tb

let is_lvalue = function EVar _ | EIndex _ -> true | _ -> false

(* Normalize `T *p = malloc(n * sizeof(T))` (without cast) into EMalloc. *)
let normalize_init (ty : cty) (init : expr option) : expr option =
  match (ty, init) with
  | TPtr elem, Some (ECall ("malloc", [ arg ])) ->
      let width = match elem with TInt | TFloat -> 4 | _ -> 8 in
      let count =
        match arg with
        | EBinop (Mul, n, EInt s) when s = width -> n
        | EBinop (Mul, EInt s, n) when s = width -> n
        | EInt total when total mod width = 0 -> EInt (total / width)
        | other -> other (* byte count == element count only for width 1 *)
      in
      Some (EMalloc (elem, count))
  | _ -> init

let rec check_stmt (prog : program) (ret : cty) (sc : scope) (s : stmt) : stmt
    =
  match s with
  | SDecl (ty, name, init) ->
      let init = normalize_init ty init in
      (match init with
      | Some e -> (
          let et = type_of prog sc e in
          match (ty, et) with
          | (TInt | TFloat | TDouble), (TInt | TFloat | TDouble) -> ()
          | TPtr a, TPtr b when a = b -> ()
          | _ -> err "cannot initialize %a from %a" pp_cty ty pp_cty et)
      | None -> ());
      declare sc name ty;
      SDecl (ty, name, init)
  | SAssign (lhs, op, rhs) ->
      if not (is_lvalue lhs) then err "assignment target is not an lvalue";
      let lt = type_of prog sc lhs in
      let rt = type_of prog sc rhs in
      (match (lt, rt, op) with
      | (TInt | TFloat | TDouble), (TInt | TFloat | TDouble), _ -> ()
      | TPtr a, TPtr b, OpAssign when a = b -> ()
      | _ -> err "cannot assign %a to %a" pp_cty rt pp_cty lt);
      SAssign (lhs, op, rhs)
  | SExpr e ->
      ignore (type_of prog sc e);
      SExpr e
  | SIf (c, t, f) ->
      ignore (type_of prog sc c);
      SIf (c, check_block prog ret sc t, check_block prog ret sc f)
  | SFor (hdr, body) ->
      ignore (type_of prog sc hdr.init);
      if hdr.step = 0 then err "for-loop step cannot be zero";
      (match (hdr.cmp, hdr.step > 0) with
      | (Lt | Le), true | (Gt | Ge), false -> ()
      | _ -> err "for-loop '%s': comparison and step direction disagree" hdr.var);
      let inner = Hashtbl.create 4 :: sc in
      declare inner hdr.var TInt;
      ignore (type_of prog inner hdr.bound);
      SFor (hdr, check_block prog ret inner body)
  | SWhile (c, body) ->
      ignore (type_of prog sc c);
      SWhile (c, check_block prog ret sc body)
  | SReturn None ->
      if ret <> TVoid then err "missing return value";
      s
  | SReturn (Some e) ->
      if ret = TVoid then err "returning a value from a void function";
      (match type_of prog sc e with
      | TInt | TFloat | TDouble -> ()
      | t -> err "cannot return %a" pp_cty t);
      s
  | SFree name -> (
      match lookup_var sc name with
      | Some (TPtr _) -> s
      | Some t -> err "free of non-pointer '%s' (%a)" name pp_cty t
      | None -> err "free of undeclared variable '%s'" name)
  | SBlock ss -> SBlock (check_block prog ret sc ss)

and check_block prog ret sc ss : stmt list =
  let inner = Hashtbl.create 8 :: sc in
  List.map (check_stmt prog ret inner) ss

(** Type-check and normalize a whole program. Raises [E-SEMA]. *)
let check (prog : program) : program =
  let funcs =
    List.map
      (fun f ->
        let sc = [ Hashtbl.create 8 ] in
        List.iter (fun (n, t) -> declare sc n t) f.params;
        { f with body = check_block prog f.ret sc f.body })
      prog.funcs
  in
  { funcs }
