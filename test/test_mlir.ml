(** Tests for the mini-MLIR core: IR construction, printing, verification,
    cloning, and the interpreter. *)

open Dcir_mlir
open Dcir_machine

(* double sum(memref<?xf64> a, index n): for-loop reduction with iter_args *)
let sum_func () : Ir.func =
  Func_d.make_func ~name:"sum"
    ~params:[ ("a", Types.MemRef (F64, [ Dynamic ])); ("n", Types.Index) ]
    ~ret:[ Types.F64 ]
    (fun params ->
      let a = List.nth params 0 and n = List.nth params 1 in
      let c0 = Arith.const_int Types.Index 0 in
      let c1 = Arith.const_int Types.Index 1 in
      let zf = Arith.const_float Types.F64 0.0 in
      let loop =
        Scf_d.for_ ~lb:(Ir.result c0) ~ub:n ~step:(Ir.result c1)
          ~iter_inits:[ Ir.result zf ]
          (fun iv iter ->
            let ld = Memref_d.load a [ iv ] in
            let add = Arith.addf (List.hd iter) (Ir.result ld) in
            [ ld; add; Scf_d.yield [ Ir.result add ] ])
      in
      [ c0; c1; zf; loop; Func_d.return_ [ Ir.result loop ] ])

let module_of f =
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  m

let run_sum n =
  let m = module_of (sum_func ()) in
  let machine = Machine.create () in
  let buf =
    Machine.alloc machine ~storage:Machine.Heap ~elems:n ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  for i = 0 to n - 1 do
    Machine.poke buf i (Value.VFloat (float_of_int i))
  done;
  let results, _ =
    Interp.run ~machine m ~entry:"sum"
      [ Interp.Buf { buf; dims = [| n |] }; Interp.Scalar (Value.VInt n) ]
  in
  Value.as_float (List.hd results)

let test_interp_sum () =
  Alcotest.(check (float 1e-9)) "sum 0..99" 4950.0 (run_sum 100);
  Alcotest.(check (float 1e-9)) "empty loop" 0.0 (run_sum 0)

let test_printer_contains () =
  let s = Printer.func_to_string (sum_func ()) in
  List.iter
    (fun frag ->
      Alcotest.(check bool) (frag ^ " printed") true
        (Tutil.contains s frag))
    [ "func.func @sum"; "scf.for"; "memref.load"; "arith.addf"; "scf.yield" ]

let test_verifier_accepts () =
  Verifier.verify_exn (module_of (sum_func ()))

let test_verifier_catches_undefined () =
  let ghost = Ir.new_value Types.F64 in
  let f =
    Func_d.make_func ~name:"bad" ~params:[] ~ret:[ Types.F64 ] (fun _ ->
        [ Func_d.return_ [ ghost ] ])
  in
  let diags = Verifier.verify_func f in
  Alcotest.(check bool) "reports undefined use" true
    (List.exists (fun (d : Verifier.diagnostic) -> d.severity = `Error) diags)

let test_verifier_isolated_tasklet () =
  (* A tasklet capturing an outer SSA value violates IsolatedFromAbove. *)
  let f =
    Func_d.make_func ~name:"t" ~params:[ ("x", Types.F64) ] ~ret:[]
      (fun params ->
        let x = List.hd params in
        let bad_tasklet =
          Ir.new_op "sdfg.tasklet"
            ~results:[ Ir.new_value Types.F64 ]
            ~regions:
              [
                Ir.new_region
                  ~ops:
                    [
                      Arith.addf x x (* captures %x *);
                      Ir.new_op "sdfg.return" ~operands:[ x ];
                    ]
                  ();
              ]
        in
        [ bad_tasklet; Func_d.return_ [] ])
  in
  let diags = Verifier.verify_func f in
  Alcotest.(check bool) "isolation violation detected" true
    (List.exists
       (fun (d : Verifier.diagnostic) -> d.severity = `Error)
       diags)

let test_verifier_size_mismatch () =
  (* Fig 3: copying sym("N") elements into a sym("M") container. *)
  let open Dcir_symbolic in
  let src =
    Ir.new_value (Types.SdfgArray (Types.F64, [ Types.SymDim (Expr.sym "N") ]))
  in
  let dst =
    Ir.new_value (Types.SdfgArray (Types.F64, [ Types.SymDim (Expr.sym "M") ]))
  in
  let copy = Ir.new_op "sdfg.copy" ~operands:[ src; dst ] in
  let diags = Verifier.check_sdfg_copy copy in
  Alcotest.(check bool) "parametric size mismatch detected" true
    (diags <> []);
  (* Equal symbolic sizes pass. *)
  let dst2 =
    Ir.new_value (Types.SdfgArray (Types.F64, [ Types.SymDim (Expr.sym "N") ]))
  in
  let copy2 = Ir.new_op "sdfg.copy" ~operands:[ src; dst2 ] in
  Alcotest.(check int) "matching sizes accepted" 0
    (List.length (Verifier.check_sdfg_copy copy2))

let test_clone_remaps () =
  let f = sum_func () in
  let body = Option.get f.fbody in
  let cloned, _ = Ir.clone_region Ir.IntMap.empty body in
  (* No value defined in the clone shares a vid with the original. *)
  let orig_ids =
    List.map (fun (v : Ir.value) -> v.vid) (Ir.defined_values body)
  in
  let clone_ids =
    List.map (fun (v : Ir.value) -> v.vid) (Ir.defined_values cloned)
  in
  Alcotest.(check bool) "disjoint ids" true
    (List.for_all (fun id -> not (List.mem id orig_ids)) clone_ids);
  (* The clone has the same op count. *)
  let count r =
    let n = ref 0 in
    Ir.walk_region r (fun _ -> incr n);
    !n
  in
  Alcotest.(check int) "same shape" (count body) (count cloned)

let test_replace_uses () =
  let c1 = Arith.const_int Types.Index 1 in
  let c2 = Arith.const_int Types.Index 2 in
  let add = Arith.addi (Ir.result c1) (Ir.result c1) in
  let r = Ir.new_region ~ops:[ c1; c2; add ] () in
  Ir.replace_uses_in_region r ~from_:(Ir.result c1) ~to_:(Ir.result c2);
  Alcotest.(check int) "no more uses" 0 (Ir.count_uses r (Ir.result c1));
  Alcotest.(check int) "two uses" 2 (Ir.count_uses r (Ir.result c2))

let test_interp_if_and_math () =
  let f =
    Func_d.make_func ~name:"g" ~params:[ ("x", Types.F64) ] ~ret:[ Types.F64 ]
      (fun params ->
        let x = List.hd params in
        let zero = Arith.const_float Types.F64 0.0 in
        let cond = Arith.cmpf "ogt" x (Ir.result zero) in
        let sq = Math_d.sqrt x in
        let neg = Arith.negf x in
        let if_ =
          Scf_d.if_ (Ir.result cond) ~result_tys:[ Types.F64 ]
            ~then_ops:[ sq; Scf_d.yield [ Ir.result sq ] ]
            ~else_ops:[ neg; Scf_d.yield [ Ir.result neg ] ]
        in
        [ zero; cond; if_; Func_d.return_ [ Ir.result if_ ] ])
  in
  let m = module_of f in
  let run v =
    let results, _ = Interp.run m ~entry:"g" [ Interp.Scalar (Value.VFloat v) ] in
    Value.as_float (List.hd results)
  in
  Alcotest.(check (float 1e-9)) "sqrt branch" 3.0 (run 9.0);
  Alcotest.(check (float 1e-9)) "negate branch" 4.0 (run (-4.0))

let test_interp_trap_on_unknown () =
  let f =
    Func_d.make_func ~name:"u" ~params:[] ~ret:[] (fun _ ->
        [ Ir.new_op "bogus.op"; Func_d.return_ [] ])
  in
  let m = module_of f in
  Alcotest.(check bool) "traps" true
    (try
       ignore (Interp.run m ~entry:"u" []);
       false
     with Interp.Trap _ -> true)

(* Serve pool workers build IR on several domains at once; SSA value and
   op ids must stay unique across them (a plain shared counter lets two
   domains mint the same id). *)
let test_ids_distinct_across_domains () =
  let n = 100_000 in
  let mint () =
    Array.init n (fun _ ->
        let v = Ir.new_value Types.I64 in
        let o = Ir.new_op "test.op" in
        (v.Ir.vid, o.Ir.oid))
  in
  let d1 = Domain.spawn mint and d2 = Domain.spawn mint in
  let ids = Array.append (Domain.join d1) (Domain.join d2) in
  let distinct proj =
    let seen = Hashtbl.create (2 * n) in
    Array.iter (fun x -> Hashtbl.replace seen (proj x) ()) ids;
    Hashtbl.length seen
  in
  Alcotest.(check int) "value ids distinct" (2 * n) (distinct fst);
  Alcotest.(check int) "op ids distinct" (2 * n) (distinct snd)

let suite =
  ( "mlir",
    [
      Alcotest.test_case "interp: loop reduction" `Quick test_interp_sum;
      Alcotest.test_case "printer output" `Quick test_printer_contains;
      Alcotest.test_case "verifier accepts valid IR" `Quick test_verifier_accepts;
      Alcotest.test_case "verifier: undefined value" `Quick test_verifier_catches_undefined;
      Alcotest.test_case "verifier: IsolatedFromAbove" `Quick test_verifier_isolated_tasklet;
      Alcotest.test_case "verifier: Fig 3 size mismatch" `Quick test_verifier_size_mismatch;
      Alcotest.test_case "clone remaps values" `Quick test_clone_remaps;
      Alcotest.test_case "replace uses" `Quick test_replace_uses;
      Alcotest.test_case "interp: scf.if + math" `Quick test_interp_if_and_math;
      Alcotest.test_case "interp: unknown op traps" `Quick test_interp_trap_on_unknown;
      Alcotest.test_case "ids distinct across domains" `Quick
        test_ids_distinct_across_domains;
    ] )
