(** Hand-written lexer for the C subset.

    Also implements the only preprocessor feature the workloads need:
    object-like [#define NAME tokens...] macros (Polybench problem sizes).
    Macro bodies are token sequences spliced at each use site; a single level
    of nesting is expanded recursively with a depth bound. *)

type token =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW of string  (** int, double, float, void, if, else, for, while, return, sizeof, free, malloc *)
  | PUNCT of string  (** operators and punctuation *)
  | EOF

type lexed = { tokens : token array; mutable pos : int }

module Diag = Dcir_support.Diagnostics

let err fmt = Diag.fail ~code:"E-LEX" ~phase:Diag.Frontend fmt

let keywords =
  [ "int"; "double"; "float"; "void"; "if"; "else"; "for"; "while"; "return";
    "sizeof"; "free"; "malloc"; "static"; "const"; "unsigned" ]

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Multi-character punctuation, longest first. *)
let puncts =
  [ "<<="; ">>="; "=="; "!="; "<="; ">="; "&&"; "||"; "++"; "--"; "+="; "-=";
    "*="; "/="; "%="; "->"; "<<"; ">>"; "("; ")"; "["; "]"; "{"; "}"; ";";
    ","; "+"; "-"; "*"; "/"; "%"; "<"; ">"; "="; "!"; "?"; ":"; "&"; "|" ]

let rec tokenize (src : string) : token list =
  let n = String.length src in
  let i = ref 0 in
  let toks = ref [] in
  let macros : (string, token list) Hashtbl.t = Hashtbl.create 8 in
  let push t = toks := t :: !toks in
  let rec expand depth name =
    match Hashtbl.find_opt macros name with
    | None ->
        push (if List.mem name keywords then KW name else IDENT name)
    | Some body ->
        if depth > 16 then err "macro recursion: %s" name;
        List.iter
          (function
            | IDENT id -> expand (depth + 1) id
            | t -> push t)
          body
  in
  let lex_number () =
    let start = !i in
    while !i < n && is_digit src.[!i] do incr i done;
    let is_float = ref false in
    if !i < n && src.[!i] = '.' then begin
      is_float := true;
      incr i;
      while !i < n && is_digit src.[!i] do incr i done
    end;
    if !i < n && (src.[!i] = 'e' || src.[!i] = 'E') then begin
      is_float := true;
      incr i;
      if !i < n && (src.[!i] = '+' || src.[!i] = '-') then incr i;
      while !i < n && is_digit src.[!i] do incr i done
    end;
    let text = String.sub src start (!i - start) in
    (* Suffixes f/F/l/L are accepted and ignored. *)
    if !i < n && (src.[!i] = 'f' || src.[!i] = 'F' || src.[!i] = 'l' || src.[!i] = 'L')
    then begin
      is_float := true;
      incr i
    end;
    if !is_float then FLOAT_LIT (float_of_string text)
    else INT_LIT (int_of_string text)
  in
  while !i < n do
    let c = src.[!i] in
    if c = ' ' || c = '\t' || c = '\r' || c = '\n' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do incr i done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      i := !i + 2;
      while !i + 1 < n && not (src.[!i] = '*' && src.[!i + 1] = '/') do incr i done;
      i := !i + 2
    end
    else if c = '#' then begin
      (* Directive: only #define NAME <tokens-to-end-of-line> is supported;
         #include and #pragma lines are skipped. *)
      let eol = try String.index_from src !i '\n' with Not_found -> n in
      let line = String.sub src !i (eol - !i) in
      i := eol;
      let parts =
        String.split_on_char ' ' line
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun s -> s <> "")
      in
      match parts with
      | "#define" :: name :: _ when String.length name > 0 ->
          let body_start =
            (* Body = raw line text after the first occurrence of the name. *)
            let rec find_from k =
              if k + String.length name > String.length line then
                String.length line
              else if String.equal (String.sub line k (String.length name)) name
              then k + String.length name
              else find_from (k + 1)
            in
            let idx = find_from (String.length "#define") in
            if String.length line > idx then
              String.sub line idx (String.length line - idx)
            else ""
          in
          (* Tokenize the body with a recursive call (macros in macro bodies
             are expanded at use time). *)
          let body_toks =
            if String.trim body_start = "" then []
            else tokenize body_start |> List.filter (( <> ) EOF)
          in
          Hashtbl.replace macros name body_toks
      | _ -> ()
    end
    else if is_digit c then push (lex_number ())
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char src.[!i] do incr i done;
      let name = String.sub src start (!i - start) in
      expand 0 name
    end
    else begin
      match
        List.find_opt
          (fun p ->
            let l = String.length p in
            !i + l <= n && String.equal (String.sub src !i l) p)
          puncts
      with
      | Some p ->
          push (PUNCT p);
          i := !i + String.length p
      | None -> err "unexpected character %c" c
    end
  done;
  List.rev (EOF :: !toks)

let of_string (src : string) : lexed =
  { tokens = Array.of_list (tokenize src); pos = 0 }

let token_to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
  | KW s -> s
  | PUNCT s -> Printf.sprintf "'%s'" s
  | EOF -> "<eof>"
