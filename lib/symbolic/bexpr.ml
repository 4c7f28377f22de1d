(** Symbolic boolean expressions.

    Interstate edges in an SDFG carry conditions ("take this edge when
    [i < N]"); dead-state elimination needs to decide, symbolically, whether a
    condition is always false. Decisions are three-valued: a comparison of
    two symbolic expressions may be [True], [False], or unknown ([None]). *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Bool of bool
  | Cmp of cmp * Expr.t * Expr.t
  | And of t * t
  | Or of t * t
  | Not of t

let true_ = Bool true
let cmp op a b = Cmp (op, a, b)
let eq a b = Cmp (Eq, a, b)
let ne a b = Cmp (Ne, a, b)
let lt a b = Cmp (Lt, a, b)
let le a b = Cmp (Le, a, b)
let gt a b = Cmp (Gt, a, b)
let ge a b = Cmp (Ge, a, b)

let negate_cmp = function
  | Eq -> Ne
  | Ne -> Eq
  | Lt -> Ge
  | Le -> Gt
  | Gt -> Le
  | Ge -> Lt

(** Decide a comparison from the sign of the simplified difference [a - b].
    Returns [None] when the sign is not statically known. Only {e constant}
    differences decide — symbols carry no sign assumption here, because loop
    induction symbols legitimately step below zero at descending-loop exits
    (the [j >= 0] guard must stay dynamic). *)
let decide_cmp (op : cmp) (a : Expr.t) (b : Expr.t) : bool option =
  match Expr.sub a b with
  | Expr.Int n -> (
      match op with
      | Eq -> Some (n = 0)
      | Ne -> Some (n <> 0)
      | Lt -> Some (n < 0)
      | Le -> Some (n <= 0)
      | Gt -> Some (n > 0)
      | Ge -> Some (n >= 0))
  | _ -> None

let rec simplify (b : t) : t =
  match b with
  | Bool _ -> b
  | Cmp (op, a, c) -> (
      let a = Expr.simplify a and c = Expr.simplify c in
      match decide_cmp op a c with
      | Some v -> Bool v
      | None -> Cmp (op, a, c))
  | And (x, y) -> (
      match (simplify x, simplify y) with
      | Bool false, _ | _, Bool false -> Bool false
      | Bool true, e | e, Bool true -> e
      | x', y' -> And (x', y'))
  | Or (x, y) -> (
      match (simplify x, simplify y) with
      | Bool true, _ | _, Bool true -> Bool true
      | Bool false, e | e, Bool false -> e
      | x', y' -> Or (x', y'))
  | Not x -> (
      match simplify x with
      | Bool v -> Bool (not v)
      | Cmp (op, a, c) -> Cmp (negate_cmp op, a, c)
      | Not inner -> inner
      | x' -> Not x')

(** Statically-known truth value, or [None]. *)
let decide (b : t) : bool option =
  match simplify b with Bool v -> Some v | _ -> None

let rec subst (lookup : string -> Expr.t option) (b : t) : t =
  match b with
  | Bool _ -> b
  | Cmp (op, a, c) -> Cmp (op, Expr.subst lookup a, Expr.subst lookup c)
  | And (x, y) -> And (subst lookup x, subst lookup y)
  | Or (x, y) -> Or (subst lookup x, subst lookup y)
  | Not x -> Not (subst lookup x)

let rec eval (env : string -> int option) (b : t) : bool =
  match b with
  | Bool v -> v
  | Cmp (op, a, c) -> (
      (* Left-to-right, like {!Expr.eval}: [env] may charge for
         scalar-container reads. *)
      let x = Expr.eval env a in
      let y = Expr.eval env c in
      match op with
      | Eq -> x = y
      | Ne -> x <> y
      | Lt -> x < y
      | Le -> x <= y
      | Gt -> x > y
      | Ge -> x >= y)
  | And (x, y) -> eval env x && eval env y
  | Or (x, y) -> eval env x || eval env y
  | Not x -> not (eval env x)

let rec free_syms (b : t) : string list =
  let module S = Set.Make (String) in
  let collect b =
    match b with
    | Bool _ -> []
    | Cmp (_, a, c) -> Expr.free_syms a @ Expr.free_syms c
    | And (x, y) | Or (x, y) -> free_syms x @ free_syms y
    | Not x -> free_syms x
  in
  S.elements (S.of_list (collect b))

let cmp_to_string = function
  | Eq -> "=="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let rec pp (ppf : Format.formatter) (b : t) : unit =
  match b with
  | Bool v -> Fmt.bool ppf v
  | Cmp (op, a, c) -> Fmt.pf ppf "%a %s %a" Expr.pp a (cmp_to_string op) Expr.pp c
  | And (x, y) -> Fmt.pf ppf "(%a and %a)" pp x pp y
  | Or (x, y) -> Fmt.pf ppf "(%a or %a)" pp x pp y
  | Not x -> Fmt.pf ppf "not (%a)" pp x

let to_string (b : t) : string = Fmt.str "%a" pp b
