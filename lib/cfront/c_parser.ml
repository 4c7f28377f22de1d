(** Recursive-descent parser for the C subset (no Menhir in the toolchain —
    see DESIGN.md §6). Produces {!C_ast} values; type checking and
    malloc-shape normalization happen in {!C_sema}. *)

open C_ast

module Diag = Dcir_support.Diagnostics

type st = { toks : C_lexer.token array; mutable pos : int }

let error st fmt =
  Fmt.kstr
    (fun m ->
      Diag.fail ~code:"E-PARSE" ~phase:Diag.Frontend "%s (at token %d: %s)" m
        st.pos
        (C_lexer.token_to_string st.toks.(min st.pos (Array.length st.toks - 1))))
    fmt

let peek st = st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else C_lexer.EOF
let advance st = st.pos <- st.pos + 1

let eat_punct st p =
  match peek st with
  | C_lexer.PUNCT q when String.equal p q -> advance st
  | _ -> error st "expected '%s'" p

let accept_punct st p =
  match peek st with
  | C_lexer.PUNCT q when String.equal p q ->
      advance st;
      true
  | _ -> false

let accept_kw st k =
  match peek st with
  | C_lexer.KW q when String.equal k q ->
      advance st;
      true
  | _ -> false

let expect_ident st =
  match peek st with
  | C_lexer.IDENT s ->
      advance st;
      s
  | _ -> error st "expected identifier"

(* ------------------------------------------------------------------ *)
(* Types *)

let is_type_start st =
  match peek st with
  | C_lexer.KW ("int" | "double" | "float" | "void" | "const" | "unsigned" | "static")
    ->
      true
  | _ -> false

let parse_base_type st : cty =
  (* Skip qualifiers. *)
  while accept_kw st "const" || accept_kw st "static" || accept_kw st "unsigned" do
    ()
  done;
  let base =
    if accept_kw st "int" then TInt
    else if accept_kw st "double" then TDouble
    else if accept_kw st "float" then TFloat
    else if accept_kw st "void" then TVoid
    else error st "expected type"
  in
  let rec stars t = if accept_punct st "*" then stars (TPtr t) else t in
  stars base

let parse_array_dims st : int list =
  let dims = ref [] in
  while accept_punct st "[" do
    (match peek st with
    | C_lexer.INT_LIT n ->
        advance st;
        dims := n :: !dims
    | _ -> error st "array dimensions must be integer constants");
    eat_punct st "]"
  done;
  List.rev !dims

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing) *)

let byte_width_of = function
  | TInt -> 4
  | TFloat -> 4
  | TDouble -> 8
  | t -> invalid_arg ("sizeof unsupported type: " ^ Fmt.str "%a" pp_cty t)

let rec parse_expr st : expr = parse_ternary st

and parse_ternary st : expr =
  let c = parse_lor st in
  if accept_punct st "?" then begin
    let a = parse_expr st in
    eat_punct st ":";
    let b = parse_ternary st in
    ECond (c, a, b)
  end
  else c

and parse_lor st : expr =
  let lhs = ref (parse_land st) in
  while accept_punct st "||" do
    lhs := EBinop (LOr, !lhs, parse_land st)
  done;
  !lhs

and parse_land st : expr =
  let lhs = ref (parse_eq st) in
  while accept_punct st "&&" do
    lhs := EBinop (LAnd, !lhs, parse_eq st)
  done;
  !lhs

and parse_eq st : expr =
  let lhs = ref (parse_rel st) in
  let continue_ = ref true in
  while !continue_ do
    if accept_punct st "==" then lhs := EBinop (Eq, !lhs, parse_rel st)
    else if accept_punct st "!=" then lhs := EBinop (Ne, !lhs, parse_rel st)
    else continue_ := false
  done;
  !lhs

and parse_rel st : expr =
  let lhs = ref (parse_add st) in
  let continue_ = ref true in
  while !continue_ do
    if accept_punct st "<=" then lhs := EBinop (Le, !lhs, parse_add st)
    else if accept_punct st ">=" then lhs := EBinop (Ge, !lhs, parse_add st)
    else if accept_punct st "<" then lhs := EBinop (Lt, !lhs, parse_add st)
    else if accept_punct st ">" then lhs := EBinop (Gt, !lhs, parse_add st)
    else continue_ := false
  done;
  !lhs

and parse_add st : expr =
  let lhs = ref (parse_mul st) in
  let continue_ = ref true in
  while !continue_ do
    if accept_punct st "+" then lhs := EBinop (Add, !lhs, parse_mul st)
    else if accept_punct st "-" then lhs := EBinop (Sub, !lhs, parse_mul st)
    else continue_ := false
  done;
  !lhs

and parse_mul st : expr =
  let lhs = ref (parse_unary st) in
  let continue_ = ref true in
  while !continue_ do
    if accept_punct st "*" then lhs := EBinop (Mul, !lhs, parse_unary st)
    else if accept_punct st "/" then lhs := EBinop (Div, !lhs, parse_unary st)
    else if accept_punct st "%" then lhs := EBinop (Mod, !lhs, parse_unary st)
    else continue_ := false
  done;
  !lhs

and parse_unary st : expr =
  if accept_punct st "-" then EUnop (Neg, parse_unary st)
  else if accept_punct st "!" then EUnop (Not, parse_unary st)
  else if accept_punct st "+" then parse_unary st
  else if
    (* Cast: '(' type ')' unary — lookahead for a type keyword. *)
    (match (peek st, peek2 st) with
    | C_lexer.PUNCT "(", C_lexer.KW ("int" | "double" | "float" | "unsigned" | "const")
      ->
        true
    | _ -> false)
  then begin
    eat_punct st "(";
    let ty = parse_base_type st in
    eat_punct st ")";
    let inner = parse_unary st in
    normalize_cast st ty inner
  end
  else parse_postfix st

and normalize_cast st ty inner : expr =
  match (ty, inner) with
  | TPtr elem, ECall ("malloc", [ arg ]) -> EMalloc (elem, malloc_count st elem arg)
  | _, _ -> ECast (ty, inner)

(* Recover the element count from a malloc byte-size expression. *)
and malloc_count st elem (arg : expr) : expr =
  let width = byte_width_of elem in
  match arg with
  | EBinop (Mul, n, EInt s) when s = width -> n
  | EBinop (Mul, EInt s, n) when s = width -> n
  | EInt total when total mod width = 0 -> EInt (total / width)
  | _ -> error st "unsupported malloc size expression"

and parse_postfix st : expr =
  let base = parse_primary st in
  let rec indices acc =
    if accept_punct st "[" then begin
      let idx = parse_expr st in
      eat_punct st "]";
      indices (idx :: acc)
    end
    else List.rev acc
  in
  let idxs = indices [] in
  if idxs = [] then base else EIndex (base, idxs)

and parse_primary st : expr =
  match peek st with
  | C_lexer.INT_LIT n ->
      advance st;
      EInt n
  | C_lexer.FLOAT_LIT f ->
      advance st;
      EFloat f
  | C_lexer.KW "sizeof" ->
      advance st;
      eat_punct st "(";
      let ty = parse_base_type st in
      eat_punct st ")";
      EInt (byte_width_of ty)
  | C_lexer.KW "malloc" ->
      advance st;
      eat_punct st "(";
      let arg = parse_expr st in
      eat_punct st ")";
      ECall ("malloc", [ arg ])
  | C_lexer.IDENT name ->
      advance st;
      if accept_punct st "(" then begin
        let args = ref [] in
        if not (accept_punct st ")") then begin
          args := [ parse_expr st ];
          while accept_punct st "," do
            args := parse_expr st :: !args
          done;
          eat_punct st ")"
        end;
        ECall (name, List.rev !args)
      end
      else EVar name
  | C_lexer.PUNCT "(" ->
      advance st;
      let e = parse_expr st in
      eat_punct st ")";
      e
  | t -> error st "unexpected token %s in expression" (C_lexer.token_to_string t)

(* ------------------------------------------------------------------ *)
(* Statements *)

let rec parse_stmt st : stmt =
  match peek st with
  | C_lexer.PUNCT "{" -> SBlock (parse_block st)
  | C_lexer.KW "if" ->
      advance st;
      eat_punct st "(";
      let cond = parse_expr st in
      eat_punct st ")";
      let then_ = parse_stmt_as_list st in
      let else_ = if accept_kw st "else" then parse_stmt_as_list st else [] in
      SIf (cond, then_, else_)
  | C_lexer.KW "while" ->
      advance st;
      eat_punct st "(";
      let cond = parse_expr st in
      eat_punct st ")";
      SWhile (cond, parse_stmt_as_list st)
  | C_lexer.KW "for" -> parse_for st
  | C_lexer.KW "return" ->
      advance st;
      if accept_punct st ";" then SReturn None
      else begin
        let e = parse_expr st in
        eat_punct st ";";
        SReturn (Some e)
      end
  | C_lexer.KW "free" ->
      advance st;
      eat_punct st "(";
      let name = expect_ident st in
      eat_punct st ")";
      eat_punct st ";";
      SFree name
  | _ when is_type_start st ->
      let s = parse_decl st in
      eat_punct st ";";
      s
  | _ ->
      let s = parse_expr_stmt st in
      eat_punct st ";";
      s

and parse_stmt_as_list st : stmt list =
  match parse_stmt st with SBlock ss -> ss | s -> [ s ]

and parse_block st : stmt list =
  eat_punct st "{";
  let stmts = ref [] in
  while not (accept_punct st "}") do
    stmts := parse_stmt st :: !stmts
  done;
  List.rev !stmts

(* One or more comma-separated declarators sharing a base type. *)
and parse_decl st : stmt =
  let base = parse_base_type st in
  let one () =
    let rec stars t = if accept_punct st "*" then stars (TPtr t) else t in
    let ty = stars base in
    let name = expect_ident st in
    let dims = parse_array_dims st in
    let ty = if dims = [] then ty else TArr (ty, dims) in
    let init = if accept_punct st "=" then Some (parse_expr st) else None in
    SDecl (ty, name, init)
  in
  let first = one () in
  let rest = ref [] in
  while accept_punct st "," do
    rest := one () :: !rest
  done;
  if !rest = [] then first else SBlock (first :: List.rev !rest)

and parse_expr_stmt st : stmt =
  let lhs = parse_ternary st in
  match peek st with
  | C_lexer.PUNCT "=" ->
      advance st;
      SAssign (lhs, OpAssign, parse_expr st)
  | C_lexer.PUNCT "+=" ->
      advance st;
      SAssign (lhs, OpAddAssign, parse_expr st)
  | C_lexer.PUNCT "-=" ->
      advance st;
      SAssign (lhs, OpSubAssign, parse_expr st)
  | C_lexer.PUNCT "*=" ->
      advance st;
      SAssign (lhs, OpMulAssign, parse_expr st)
  | C_lexer.PUNCT "/=" ->
      advance st;
      SAssign (lhs, OpDivAssign, parse_expr st)
  | C_lexer.PUNCT "++" ->
      advance st;
      SAssign (lhs, OpAddAssign, EInt 1)
  | C_lexer.PUNCT "--" ->
      advance st;
      SAssign (lhs, OpSubAssign, EInt 1)
  | _ -> SExpr lhs

(* for (init; cond; update) — canonical headers only. *)
and parse_for st : stmt =
  advance st;
  eat_punct st "(";
  (* init: [type] var = expr *)
  let var, init =
    if is_type_start st then begin
      let _ty = parse_base_type st in
      let name = expect_ident st in
      eat_punct st "=";
      (name, parse_expr st)
    end
    else begin
      let name = expect_ident st in
      eat_punct st "=";
      (name, parse_expr st)
    end
  in
  eat_punct st ";";
  (* condition: var <cmp> bound *)
  let cond = parse_expr st in
  eat_punct st ";";
  let cmp, bound =
    match cond with
    | EBinop (((Lt | Le | Gt | Ge) as c), EVar v, b) when String.equal v var ->
        (c, b)
    | _ -> error st "for-loop condition must compare the induction variable"
  in
  (* update: var++ / var-- / var += c / var -= c / var = var + c *)
  let step =
    match peek st with
    | C_lexer.IDENT v when String.equal v var -> (
        advance st;
        match peek st with
        | C_lexer.PUNCT "++" ->
            advance st;
            1
        | C_lexer.PUNCT "--" ->
            advance st;
            -1
        | C_lexer.PUNCT "+=" -> (
            advance st;
            match parse_expr st with
            | EInt c -> c
            | _ -> error st "for-loop step must be an integer constant")
        | C_lexer.PUNCT "-=" -> (
            advance st;
            match parse_expr st with
            | EInt c -> -c
            | _ -> error st "for-loop step must be an integer constant")
        | C_lexer.PUNCT "=" -> (
            advance st;
            match parse_expr st with
            | EBinop (Add, EVar v', EInt c) when String.equal v' var -> c
            | EBinop (Add, EInt c, EVar v') when String.equal v' var -> c
            | EBinop (Sub, EVar v', EInt c) when String.equal v' var -> -c
            | _ -> error st "unsupported for-loop update expression")
        | _ -> error st "unsupported for-loop update")
    | _ -> error st "for-loop update must assign the induction variable"
  in
  eat_punct st ")";
  let body = parse_stmt_as_list st in
  SFor ({ var; init; cmp; bound; step }, body)

(* ------------------------------------------------------------------ *)
(* Top level *)

let parse_func st : func_def =
  let ret = parse_base_type st in
  let name = expect_ident st in
  eat_punct st "(";
  let params = ref [] in
  if not (accept_punct st ")") then begin
    (* Allow (void). *)
    if accept_kw st "void" && accept_punct st ")" then ()
    else begin
      let one () =
        let ty = parse_base_type st in
        let pname = expect_ident st in
        let dims = parse_array_dims st in
        let ty = if dims = [] then ty else TArr (ty, dims) in
        (pname, ty)
      in
      params := [ one () ];
      while accept_punct st "," do
        params := one () :: !params
      done;
      eat_punct st ")"
    end
  end;
  let body = parse_block st in
  { name; ret; params = List.rev !params; body }

let parse_program (src : string) : program =
  let lexed = C_lexer.of_string src in
  let st = { toks = lexed.C_lexer.tokens; pos = 0 } in
  let funcs = ref [] in
  while peek st <> C_lexer.EOF do
    funcs := parse_func st :: !funcs
  done;
  { funcs = List.rev !funcs }
