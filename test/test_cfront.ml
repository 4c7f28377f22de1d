(** Tests for the C frontend: lexer (incl. #define), parser shapes, semantic
    errors, and Polygeist-style lowering executed end to end. *)

open Dcir_cfront
open Dcir_machine
module Diag = Dcir_support.Diagnostics

let run_c ?(args = []) (src : string) ~(entry : string) : Value.t =
  let m = Polygeist.compile src in
  let results, _ = Dcir_mlir.Interp.run m ~entry args in
  List.hd results

let test_lexer_define () =
  let toks = C_lexer.tokenize "#define N 40\nint x = N + N2;\n#define N2 7\n" in
  (* N expands (defined before use); N2 does not (defined after). *)
  Alcotest.(check bool) "N expanded" true
    (List.mem (C_lexer.INT_LIT 40) toks);
  Alcotest.(check bool) "N2 not yet defined at use" true
    (List.mem (C_lexer.IDENT "N2") toks)

let test_lexer_comments_and_floats () =
  let toks =
    C_lexer.tokenize "/* block */ 1.5e2 // line\n 3.0f x_1"
  in
  Alcotest.(check bool) "float" true (List.mem (C_lexer.FLOAT_LIT 150.0) toks);
  Alcotest.(check bool) "suffix" true (List.mem (C_lexer.FLOAT_LIT 3.0) toks);
  Alcotest.(check bool) "ident" true (List.mem (C_lexer.IDENT "x_1") toks)

let test_parser_for_headers () =
  let prog =
    C_parser.parse_program
      "void f(double a[4]) { for (int i = 3; i >= 0; i--) a[i] = 1.0; }"
  in
  match (List.hd prog.funcs).body with
  | [ C_ast.SFor (hdr, _) ] ->
      Alcotest.(check int) "step" (-1) hdr.step;
      Alcotest.(check string) "var" "i" hdr.var
  | _ -> Alcotest.fail "expected a single for statement"

(* The code of the frontend diagnostic [f] fails with, or "accepted". *)
let frontend_code (f : unit -> 'a) : string =
  match f () with
  | _ -> "accepted"
  | exception Diag.Error { code; phase = Diag.Frontend; _ } -> code

let test_parser_rejects () =
  let parse src () = C_parser.parse_program src in
  Alcotest.(check string) "bad update" "E-PARSE"
    (frontend_code (parse "void f() { for (int i = 0; i < 4; j++) {} }"));
  Alcotest.(check string) "stray character" "E-LEX"
    (frontend_code (parse "int f(int n) { return n @ 1; }"))

let test_sema_errors () =
  let expect_error src =
    frontend_code (fun () -> C_sema.check (C_parser.parse_program src))
  in
  Alcotest.(check string) "undeclared var" "E-SEMA"
    (expect_error "void f() { x = 1; }");
  Alcotest.(check string) "index count" "E-SEMA"
    (expect_error "void f(double a[4][4]) { a[1] = 0.0; }");
  Alcotest.(check string) "float index" "E-SEMA"
    (expect_error "void f(double a[4]) { a[1.5] = 0.0; }");
  Alcotest.(check string) "bad call arity" "E-SEMA"
    (expect_error "void f() { double x = pow(2.0); }");
  Alcotest.(check string) "void return" "E-SEMA"
    (expect_error "double f() { return; }");
  (* The checker accepts an early return; the lowering rejects it. *)
  Alcotest.(check string) "early return" "E-LOWER"
    (frontend_code (fun () ->
         Polygeist.compile "int f(int n) { return n; n = 1; }"))

let test_lowering_arith () =
  let v =
    run_c ~entry:"f"
      "int f() { int a = 7; int b = 3; return a / b + a % b + (a > b ? 10 : 20); }"
  in
  Alcotest.(check int) "7/3 + 7%3 + 10" 13 (Value.as_int v)

let test_lowering_descending_loop () =
  (* Descending loops invert to ascending scf.for with remapped indices;
     semantics (incl. memory order) must be identical. *)
  let v =
    run_c ~entry:"f"
      {|
double f() {
  double a[10];
  for (int i = 9; i >= 0; i--)
    a[i] = 1.0 * i;
  double s = 0.0;
  for (int i = 0; i < 10; i++)
    s += a[i] * (i + 1.0);
  return s;
}
|}
  in
  (* sum i*(i+1) for 0..9 = 330 *)
  Alcotest.(check (float 1e-9)) "descending init" 330.0 (Value.as_float v)

let test_lowering_step_loops () =
  let v =
    run_c ~entry:"f"
      {|
int f() {
  int s = 0;
  for (int i = 0; i <= 10; i += 3)
    s += i;
  for (int i = 10; i > 0; i -= 4)
    s += 100 * i;
  return s;
}
|}
  in
  (* 0+3+6+9 = 18; i in {10,6,2}: 1800 *)
  Alcotest.(check int) "stepped loops" 1818 (Value.as_int v)

let test_lowering_malloc_free () =
  let v =
    run_c ~entry:"f"
      {|
int f() {
  int *p = (int*)malloc(8 * sizeof(int));
  for (int i = 0; i < 8; i++)
    p[i] = i * i;
  int s = p[7];
  free(p);
  return s;
}
|}
  in
  Alcotest.(check int) "heap array" 49 (Value.as_int v)

let test_lowering_calls_and_math () =
  let v =
    run_c ~entry:"g"
      {|
double square(double x) { return x * x; }
double g() { return sqrt(square(3.0)) + exp(0.0); }
|}
  in
  Alcotest.(check (float 1e-9)) "calls + math" 4.0 (Value.as_float v)

let test_use_after_free_faults () =
  Alcotest.(check bool) "use after free traps" true
    (try
       ignore
         (run_c ~entry:"f"
            "int f() { int *p = (int*)malloc(4 * sizeof(int)); free(p); return p[0]; }");
       false
     with Machine.Fault _ -> true)

let test_lowering_2d () =
  let v =
    run_c ~entry:"f"
      {|
double f() {
  double m[3][4];
  for (int i = 0; i < 3; i++)
    for (int j = 0; j < 4; j++)
      m[i][j] = 10.0 * i + j;
  return m[2][3];
}
|}
  in
  Alcotest.(check (float 1e-9)) "2d indexing" 23.0 (Value.as_float v)

let suite =
  ( "cfront",
    [
      Alcotest.test_case "lexer: #define" `Quick test_lexer_define;
      Alcotest.test_case "lexer: comments, floats" `Quick test_lexer_comments_and_floats;
      Alcotest.test_case "parser: for headers" `Quick test_parser_for_headers;
      Alcotest.test_case "parser: rejects bad loops" `Quick test_parser_rejects;
      Alcotest.test_case "sema: error detection" `Quick test_sema_errors;
      Alcotest.test_case "lowering: arithmetic" `Quick test_lowering_arith;
      Alcotest.test_case "lowering: descending loop" `Quick test_lowering_descending_loop;
      Alcotest.test_case "lowering: stepped loops" `Quick test_lowering_step_loops;
      Alcotest.test_case "lowering: malloc/free" `Quick test_lowering_malloc_free;
      Alcotest.test_case "lowering: calls + math" `Quick test_lowering_calls_and_math;
      Alcotest.test_case "lowering: use after free" `Quick test_use_after_free_faults;
      Alcotest.test_case "lowering: 2-d arrays" `Quick test_lowering_2d;
    ] )
