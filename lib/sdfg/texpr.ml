(** The native tasklet language.

    DaCe's "Python tasklets": small, analyzable expressions over input
    connectors and symbols. The MLIR-to-SDFG translator {e raises} MLIR
    tasklets into this language when possible (§5.2), which is what enables
    the data-centric passes to see through computations; tasklets that stay
    opaque (the DaCe C frontend's units, §7.2/Fig 7) block that analysis. *)

open Dcir_symbolic

type binop =
  | BAdd | BSub | BMul | BDiv  (** float or int depending on operands *)
  | BMod | BMin | BMax

type cmpop = CEq | CNe | CLt | CLe | CGt | CGe

type t =
  | TFloat of float
  | TInt of int
  | TIn of string  (** input connector (scalar) *)
  | TSym of string  (** read-only symbol *)
  | TIndex of string * t list
      (** indirect access into an array-valued input connector *)
  | TBin of binop * t * t
  | TCmp of cmpop * t * t  (** yields 0/1 *)
  | TSelect of t * t * t
  | TUn of [ `Neg | `Not | `ToFloat | `ToInt ] * t
  | TCall of string * t list  (** math function by name: exp, log, ... *)

(** One tasklet = assignments of expressions to output connectors. *)
type code = (string * t) list

let free_inputs (e : t) : string list =
  let module S = Set.Make (String) in
  let rec go acc = function
    | TFloat _ | TInt _ | TSym _ -> acc
    | TIn c -> S.add c acc
    | TIndex (c, idxs) -> List.fold_left go (S.add c acc) idxs
    | TBin (_, a, b) | TCmp (_, a, b) -> go (go acc a) b
    | TSelect (a, b, c) -> go (go (go acc a) b) c
    | TUn (_, a) -> go acc a
    | TCall (_, args) -> List.fold_left go acc args
  in
  S.elements (go S.empty e)

let free_syms (e : t) : string list =
  let module S = Set.Make (String) in
  let rec go acc = function
    | TFloat _ | TInt _ | TIn _ -> acc
    | TSym s -> S.add s acc
    | TIndex (_, idxs) -> List.fold_left go acc idxs
    | TBin (_, a, b) | TCmp (_, a, b) -> go (go acc a) b
    | TSelect (a, b, c) -> go (go (go acc a) b) c
    | TUn (_, a) -> go acc a
    | TCall (_, args) -> List.fold_left go acc args
  in
  S.elements (go S.empty e)

(** Substitute an input connector by an expression (tasklet fusion). *)
let rec subst_input (conn : string) (value : t) (e : t) : t =
  let s = subst_input conn value in
  match e with
  | TIn c when String.equal c conn -> value
  | TIndex (c, idxs) ->
      if String.equal c conn then
        invalid_arg "Texpr.subst_input: array connector"
      else TIndex (c, List.map s idxs)
  | TBin (op, a, b) -> TBin (op, s a, s b)
  | TCmp (op, a, b) -> TCmp (op, s a, s b)
  | TSelect (a, b, c) -> TSelect (s a, s b, s c)
  | TUn (op, a) -> TUn (op, s a)
  | TCall (f, args) -> TCall (f, List.map s args)
  | TFloat _ | TInt _ | TIn _ | TSym _ -> e

(** Substitute symbols by symbolic expressions (symbol propagation). *)
let rec subst_syms (lookup : string -> Expr.t option) (e : t) : t =
  let s = subst_syms lookup in
  match e with
  | TSym name -> (
      match lookup name with Some ex -> of_expr ex | None -> e)
  | TIndex (c, idxs) -> TIndex (c, List.map s idxs)
  | TBin (op, a, b) -> TBin (op, s a, s b)
  | TCmp (op, a, b) -> TCmp (op, s a, s b)
  | TSelect (a, b, c) -> TSelect (s a, s b, s c)
  | TUn (op, a) -> TUn (op, s a)
  | TCall (f, args) -> TCall (f, List.map s args)
  | TFloat _ | TInt _ | TIn _ -> e

(** Embed a symbolic expression as tasklet code. *)
and of_expr (ex : Expr.t) : t =
  match ex with
  | Expr.Int n -> TInt n
  | Expr.Sym s -> TSym s
  | Expr.Add xs ->
      List.fold_left
        (fun acc x -> TBin (BAdd, acc, of_expr x))
        (of_expr (List.hd xs))
        (List.tl xs)
  | Expr.Mul xs ->
      List.fold_left
        (fun acc x -> TBin (BMul, acc, of_expr x))
        (of_expr (List.hd xs))
        (List.tl xs)
  | Expr.Div (a, b) -> TBin (BDiv, of_expr a, of_expr b)
  | Expr.Mod (a, b) -> TBin (BMod, of_expr a, of_expr b)
  | Expr.Min (a, b) -> TBin (BMin, of_expr a, of_expr b)
  | Expr.Max (a, b) -> TBin (BMax, of_expr a, of_expr b)

(** Convert tasklet code to a symbolic expression when it is free of inputs,
    indirect accesses, math calls and float literals — the test
    scalar-to-symbol promotion uses (§6.1). *)
let rec to_expr (e : t) : Expr.t option =
  match e with
  | TInt n -> Some (Expr.int n)
  | TSym s -> Some (Expr.sym s)
  | TBin (op, a, b) -> (
      match (to_expr a, to_expr b) with
      | Some x, Some y ->
          Some
            (match op with
            | BAdd -> Expr.add x y
            | BSub -> Expr.sub x y
            | BMul -> Expr.mul x y
            | BDiv -> Expr.div x y
            | BMod -> Expr.modulo x y
            | BMin -> Expr.min_ x y
            | BMax -> Expr.max_ x y)
      | _ -> None)
  | TUn (`Neg, a) -> Option.map Expr.neg (to_expr a)
  | TUn ((`ToFloat | `ToInt), a) -> to_expr a
  | TFloat _ | TIn _ | TIndex _ | TCmp _ | TSelect _ | TUn (`Not, _)
  | TCall _ ->
      None

(* ------------------------------------------------------------------ *)
(* Printing *)

let binop_str = function
  | BAdd -> "+" | BSub -> "-" | BMul -> "*" | BDiv -> "/"
  | BMod -> "%" | BMin -> "min" | BMax -> "max"

let cmpop_str = function
  | CEq -> "==" | CNe -> "!=" | CLt -> "<" | CLe -> "<=" | CGt -> ">" | CGe -> ">="

let rec pp (ppf : Format.formatter) (e : t) : unit =
  match e with
  | TFloat f -> Fmt.pf ppf "%g" f
  | TInt n -> Fmt.int ppf n
  | TIn c -> Fmt.string ppf c
  | TSym s -> Fmt.pf ppf "sym(%s)" s
  | TIndex (c, idxs) ->
      Fmt.pf ppf "%s[%a]" c (Fmt.list ~sep:(Fmt.any ", ") pp) idxs
  | TBin ((BMin | BMax) as op, a, b) ->
      Fmt.pf ppf "%s(%a, %a)" (binop_str op) pp a pp b
  | TBin (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (binop_str op) pp b
  | TCmp (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp a (cmpop_str op) pp b
  | TSelect (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp c pp a pp b
  | TUn (`Neg, a) -> Fmt.pf ppf "(-%a)" pp a
  | TUn (`Not, a) -> Fmt.pf ppf "(!%a)" pp a
  | TUn (`ToFloat, a) -> Fmt.pf ppf "float(%a)" pp a
  | TUn (`ToInt, a) -> Fmt.pf ppf "int(%a)" pp a
  | TCall (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") pp) args

let to_string (e : t) : string = Fmt.str "%a" pp e
