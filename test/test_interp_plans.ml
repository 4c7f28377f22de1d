(** Tests for the compiled execution tier and the interpreter hot-path
    fixes.

    The compiled tier (the bytecode VM of {!Dcir_bytecode} for SDFGs,
    {!Dcir_mlir.Interp} [~mode:Compiled] for MLIR) must be {e observably
    indistinguishable} from the tree walkers: same outputs, same traps,
    and bit-identical machine metrics — the cost model is the paper's
    measurement apparatus, so a tier that changes cycle counts silently
    corrupts every figure.
    These tests pin that contract on hand-built SDFGs and MLIR modules,
    on the full fixed-seed fuzz corpus, and on a Polybench subset through
    both compiled tiers, alongside the
    hot-path bug sweep: symbol reads of scalar containers must charge a
    load, float->int casts truncate toward zero and trap on NaN/inf in
    both interpreters, and SDFG construction must stay linear. *)

open Dcir_sdfg
open Dcir_symbolic
open Dcir_machine
module Pipelines = Dcir_core.Pipelines
module Metrics = Dcir_machine.Metrics

let mk_tasklet ?(syms = []) name ins outs code =
  {
    Sdfg.tname = name;
    t_inputs = ins;
    t_outputs = outs;
    t_syms = syms;
    code = Sdfg.Native code;
    t_overhead = 0.0;
  }

let memlet ?wcr ?other data subset = { Sdfg.data; subset; wcr; other }

let check_metrics_equal label (a : Metrics.t) (b : Metrics.t) =
  if not (Metrics.equal a b) then
    Alcotest.failf "%s: tree and bytecode metrics differ\ntree:\n%a\nbytecode:\n%a"
      label Metrics.pp a Metrics.pp b

(* The two SDFG tiers on a hand-built SDFG: the tree walker, and the
   bytecode VM over the lowered program. *)
type tier = Tree | Bytecode

let run_tier (tier : tier) ~(machine : Machine.t) (sdfg : Sdfg.t)
    ~(buffers : (string * Machine.buffer * int array) list) : Interp.result =
  match tier with
  | Tree -> Interp.run ~machine sdfg ~buffers ~symbols:[] ()
  | Bytecode ->
      Dcir_bytecode.Vm.run ~machine (Dcir_bytecode.Lower.lower sdfg) ~buffers
        ~symbols:[] ()

(* ------------------------------------------------------------------ *)
(* Symbol reads of scalar containers charge a load *)

(* One interstate condition reading scalar container [n]; the condition
   evaluation is the only memory access in the whole program, so the load
   counter isolates the sym_env path (a [peek] would leave it at 0). *)
let symenv_sdfg () : Sdfg.t =
  let sdfg = Sdfg.create "symenv" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "n");
  sdfg.param_order <- [ "n" ];
  ignore (Sdfg.add_state sdfg "init");
  ignore (Sdfg.add_state sdfg "exit");
  Sdfg.add_istate_edge sdfg
    ~cond:(Bexpr.gt (Expr.sym "n") Expr.zero)
    ~src:"init" ~dst:"exit" ();
  sdfg.start_state <- "init";
  sdfg

let run_symenv (tier : tier) : Metrics.t =
  let machine = Machine.create () in
  let n =
    Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  Machine.poke n 0 (Value.VInt 5);
  ignore (run_tier tier ~machine (symenv_sdfg ()) ~buffers:[ ("n", n, [||]) ]);
  Machine.metrics machine

let test_symenv_scalar_load () =
  let mt = run_symenv Tree in
  Alcotest.(check int) "scalar-container symbol read goes through the cache" 1
    mt.loads;
  Alcotest.(check bool) "load charged cycles" true (mt.cycles > 0.0);
  check_metrics_equal "symenv" mt (run_symenv Bytecode)

(* ------------------------------------------------------------------ *)
(* SDFG construction stays linear in the number of states *)

let test_construction_scale () =
  let n = 10_000 in
  let label i = "s" ^ string_of_int i in
  let t0 = Sys.time () in
  let sdfg = Sdfg.create "big" in
  for i = 0 to n - 1 do
    ignore (Sdfg.add_state sdfg (label i))
  done;
  for i = 0 to n - 2 do
    Sdfg.add_istate_edge sdfg ~src:(label i) ~dst:(label (i + 1)) ()
  done;
  sdfg.start_state <- label 0;
  let dt = Sys.time () -. t0 in
  (* Quadratic append made this minutes; staged construction is
     milliseconds. The bound is loose only to absorb CI noise. *)
  if dt >= 1.0 then
    Alcotest.failf "10k-state construction took %.2fs (expected well under 1s)"
      dt;
  Alcotest.(check int) "all states present" n (List.length (Sdfg.states sdfg));
  Alcotest.(check bool) "find_state hits the last state" true
    (Sdfg.find_state sdfg (label (n - 1)) <> None);
  (* And the whole chain executes identically in both tiers. *)
  let run tier =
    let machine = Machine.create () in
    ignore (run_tier tier ~machine sdfg ~buffers:[]);
    Machine.metrics machine
  in
  check_metrics_equal "10k-state chain" (run Tree) (run Bytecode)

(* ------------------------------------------------------------------ *)
(* float->int casts: truncation toward zero, trap on NaN/inf *)

let cast_src = "int kernel_cast(double x) {\n  return (int)x;\n}\n"
let cast_kinds = [ Pipelines.Mlir; Pipelines.Dcir ]
let modes : Pipelines.interp_mode list = [ `Tree; `Compiled ]

let run_cast kind mode (x : float) : Pipelines.run_result =
  let compiled =
    Pipelines.compile kind ~src:cast_src ~entry:"kernel_cast"
  in
  Pipelines.run ~interp_mode:mode compiled ~entry:"kernel_cast"
    [ Pipelines.AFloat x ]

let test_toint_truncation () =
  List.iter
    (fun (x, expect) ->
      List.iter
        (fun kind ->
          List.iter
            (fun mode ->
              let r = run_cast kind mode x in
              Alcotest.(check bool)
                (Printf.sprintf "(int)%g = %d [%s]" x expect
                   (Pipelines.kind_name kind))
                true
                (r.return_value = Some (Value.VInt expect)))
            modes)
        cast_kinds)
    [ (2.9, 2); (-2.9, -2); (-0.5, 0); (7.0, 7) ]

let trap_message (f : unit -> Pipelines.run_result) : string =
  match f () with
  | _ -> Alcotest.fail "expected a trap, got a result"
  | exception Dcir_sdfg.Interp.Trap msg -> msg
  | exception Dcir_mlir.Interp.Trap msg -> msg

let test_toint_traps () =
  List.iter
    (fun (x, expect_sub) ->
      let msgs =
        List.concat_map
          (fun kind ->
            List.map (fun mode -> trap_message (fun () -> run_cast kind mode x)) modes)
          cast_kinds
      in
      List.iter
        (fun msg ->
          Alcotest.(check bool)
            (Printf.sprintf "trap mentions %S (got %S)" expect_sub msg)
            true
            (Tutil.contains msg expect_sub))
        msgs;
      (* Same wording everywhere: both interpreters, both modes. *)
      List.iter
        (fun msg -> Alcotest.(check string) "trap message uniform" (List.hd msgs) msg)
        msgs)
    [ (Float.nan, "nan"); (Float.infinity, "out of range");
      (Float.neg_infinity, "out of range") ]

(* ------------------------------------------------------------------ *)
(* BMod / BMin / BMax on floats: parity across interpreters and modes *)

(* MLIR reference: a two-argument float function around one arith op. *)
let mlir_fbin (build : Dcir_mlir.Ir.value -> Dcir_mlir.Ir.value -> Dcir_mlir.Ir.op)
    (mode : Dcir_mlir.Interp.mode) (a : float) (b : float) : Value.t =
  let open Dcir_mlir in
  let f =
    Func_d.make_func ~name:"f"
      ~params:[ ("a", Types.F64); ("b", Types.F64) ]
      ~ret:[ Types.F64 ]
      (fun params ->
        let va = List.nth params 0 and vb = List.nth params 1 in
        let o = build va vb in
        [ o; Func_d.return_ [ Ir.result o ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  let results, _ =
    Interp.run ~mode m ~entry:"f"
      [ Interp.Scalar (Value.VFloat a); Interp.Scalar (Value.VFloat b) ]
  in
  List.hd results

let sdfg_fbin (op : Texpr.binop) (a : float) (b : float) : Value.t =
  let m = Machine.create () in
  Interp.apply_binop m op (Value.VFloat a) (Value.VFloat b)

let fbin_operands =
  [ (7.5, 2.0); (-7.5, 2.0); (7.5, -2.0); (3.0, Float.nan); (Float.nan, 3.0);
    (0.0, -0.0) ]

let test_float_minmax_cross_interp () =
  List.iter
    (fun (texpr_op, arith_op, name) ->
      List.iter
        (fun (a, b) ->
          let s = sdfg_fbin texpr_op a b in
          List.iter
            (fun mode ->
              let v = mlir_fbin arith_op mode a b in
              Alcotest.(check bool)
                (Printf.sprintf "%s(%g, %g) agrees across interpreters" name a b)
                true (Value.equal s v))
            [ Dcir_mlir.Interp.Tree; Dcir_mlir.Interp.Compiled ])
        fbin_operands)
    [ (Texpr.BMin, Dcir_mlir.Arith.minf, "min");
      (Texpr.BMax, Dcir_mlir.Arith.maxf, "max") ]

let test_float_mod_semantics () =
  (* No arith.remf in the dialect subset; BMod floats pin Float.rem
     (truncated division, sign of the dividend) directly. *)
  List.iter
    (fun ((a, b), expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "fmod(%g, %g)" a b)
        true
        (Value.equal (sdfg_fbin Texpr.BMod a b) (Value.VFloat expect)))
    [ ((7.5, 2.0), 1.5); ((-7.5, 2.0), -1.5); ((7.5, -2.0), 1.5) ];
  Alcotest.(check bool) "fmod propagates nan" true
    (Value.equal (sdfg_fbin Texpr.BMod 3.0 Float.nan) (Value.VFloat Float.nan))

(* Tasklet-level: the same ops through whole-SDFG execution, both tiers. *)
let fbin_sdfg () : Sdfg.t =
  let sdfg = Sdfg.create "fbin" in
  List.iter
    (fun name ->
      ignore
        (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DFloat ~shape:[]
           name))
    [ "a"; "b"; "m"; "lo"; "hi" ];
  sdfg.param_order <- [ "a"; "b"; "m"; "lo"; "hi" ];
  let st = Sdfg.add_state sdfg "s" in
  let g = st.s_graph in
  let a = Sdfg.add_node g (Sdfg.Access "a") in
  let b = Sdfg.add_node g (Sdfg.Access "b") in
  let t =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet "t" [ "_a"; "_b" ] [ "_m"; "_lo"; "_hi" ]
            [
              ("_m", Texpr.TBin (Texpr.BMod, TIn "_a", TIn "_b"));
              ("_lo", Texpr.TBin (Texpr.BMin, TIn "_a", TIn "_b"));
              ("_hi", Texpr.TBin (Texpr.BMax, TIn "_a", TIn "_b"));
            ]))
  in
  ignore (Sdfg.add_edge g ~dst_conn:"_a" ~memlet:(memlet "a" []) a t);
  ignore (Sdfg.add_edge g ~dst_conn:"_b" ~memlet:(memlet "b" []) b t);
  List.iter
    (fun (conn, name) ->
      let out = Sdfg.add_node g (Sdfg.Access name) in
      ignore (Sdfg.add_edge g ~src_conn:conn ~memlet:(memlet name []) t out))
    [ ("_m", "m"); ("_lo", "lo"); ("_hi", "hi") ];
  sdfg

let test_float_binops_tasklet_parity () =
  let sdfg = fbin_sdfg () in
  List.iter
    (fun (a, b) ->
      let run tier =
        let machine = Machine.create () in
        let scalar v =
          let buf =
            Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
              ~zero_init:(Value.VFloat 0.0)
          in
          Machine.poke buf 0 (Value.VFloat v);
          buf
        in
        let bufs =
          [ ("a", scalar a, [||]); ("b", scalar b, [||]); ("m", scalar 0.0, [||]);
            ("lo", scalar 0.0, [||]); ("hi", scalar 0.0, [||]) ]
        in
        ignore (run_tier tier ~machine sdfg ~buffers:bufs);
        let out name =
          let _, buf, _ = List.find (fun (n, _, _) -> n = name) bufs in
          Machine.peek buf 0
        in
        ((out "m", out "lo", out "hi"), Machine.metrics machine)
      in
      let (vt, mt) = run Tree and (vc, mc) = run Bytecode in
      let m1, lo1, hi1 = vt and m2, lo2, hi2 = vc in
      Alcotest.(check bool)
        (Printf.sprintf "tasklet outputs identical for (%g, %g)" a b)
        true
        (Value.equal m1 m2 && Value.equal lo1 lo2 && Value.equal hi1 hi2);
      check_metrics_equal "fbin tasklet" mt mc)
    fbin_operands

(* ------------------------------------------------------------------ *)
(* Two-way differential (tree / compiled): fuzz corpus, Polybench subset,
   and trap-timing shapes *)

let run_outcome compiled ~entry args (mode : Pipelines.interp_mode) :
    (Pipelines.run_result, string) result =
  match Pipelines.run ~interp_mode:mode compiled ~entry args with
  | r -> Ok r
  | exception Dcir_sdfg.Interp.Trap m -> Error m
  | exception Dcir_mlir.Interp.Trap m -> Error m

let check_tier_differential ~label kind ~src ~entry args =
  let compiled = Pipelines.compile kind ~src ~entry in
  let rt = run_outcome compiled ~entry args `Tree in
  let rc = run_outcome compiled ~entry args `Compiled in
  let agree =
    match (rt, rc) with
    | Ok x, Ok y ->
        Pipelines.bitwise_divergence ~what:"tree and compiled tiers" x y
        = None
    | Error x, Error y -> String.equal x y
    | _ -> false
  in
  if not agree then
    Alcotest.failf
      "%s: compiled tier diverged from tree walker (outputs, trap, or metrics)"
      label

let test_fuzz_tier_differential () =
  (* Same corpus as the CI fuzz campaign: seed 42, 100 programs. Every
     case must execute identically — outputs AND machine metrics — under
     tree walking and the compiled tier. The SDFG-native pipeline (the
     bytecode VM) and the gcc pipeline (the MLIR closure compiler) run
     for every case; the opaque-tasklet pipeline (dace) on every tenth. *)
  let seed = 42 and count = 100 in
  for i = 0 to count - 1 do
    let case = Dcir_fuzz.Gen.generate (Dcir_fuzz.Rng.derive seed i) in
    let args = case.args () in
    check_tier_differential
      ~label:(Printf.sprintf "fuzz case %d (seed %d) dcir" i case.seed)
      Pipelines.Dcir ~src:case.src ~entry:case.entry args;
    check_tier_differential
      ~label:(Printf.sprintf "fuzz case %d (seed %d) gcc" i case.seed)
      Pipelines.Gcc ~src:case.src ~entry:case.entry args;
    if i mod 10 = 0 then
      check_tier_differential
        ~label:(Printf.sprintf "fuzz case %d (seed %d) dace" i case.seed)
        Pipelines.Dace ~src:case.src ~entry:case.entry args
  done

let test_polybench_tier_differential () =
  let open Dcir_workloads in
  List.iter
    (fun (w : Workload.t) ->
      List.iter
        (fun kind ->
          check_tier_differential
            ~label:(w.name ^ " " ^ Pipelines.kind_name kind)
            kind ~src:w.src ~entry:w.entry (w.args ()))
        [
          Pipelines.Dcir; Pipelines.Dace; Pipelines.Gcc; Pipelines.Clang;
          Pipelines.Mlir;
        ])
    [ Polybench.gesummv; Polybench.trisolv; Polybench.jacobi_1d ]

(* Trap-timing parity on the shapes from test_trapsafe.ml: both tiers
   must trap at the same point (or not at all) with the same message, and
   agree bit-for-bit when they finish. *)
let test_bytecode_trap_timing () =
  let zero_trip =
    {|
int f(int n, int d) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + 100 / d; }
  return s;
}
|}
  in
  List.iter
    (fun (what, args) ->
      check_tier_differential
        ~label:("trap-timing " ^ what)
        Pipelines.Dcir ~src:zero_trip ~entry:"f" args)
    [
      ("zero-trip", [ Pipelines.AInt 0; Pipelines.AInt 0 ]);
      ("nonzero-trip", [ Pipelines.AInt 2; Pipelines.AInt 0 ]);
      ("benign", [ Pipelines.AInt 5; Pipelines.AInt 3 ]);
    ];
  let rem =
    {|
int g(int a, int d) {
  int t = a % d;
  int u = a / d;
  return t + u;
}
|}
  in
  List.iter
    (fun (what, args) ->
      check_tier_differential
        ~label:("trap-timing " ^ what)
        Pipelines.Dcir ~src:rem ~entry:"g" args)
    [
      ("rem-zero", [ Pipelines.AInt 7; Pipelines.AInt 0 ]);
      ("rem-ok", [ Pipelines.AInt 7; Pipelines.AInt 3 ]);
    ]

(* ------------------------------------------------------------------ *)
(* Lazy failure timing: a malformed dataflow graph raises only when
   execution reaches it — the tree walker sorts a graph when it first
   executes it, and the lowering defers the same exception to the same
   point as a [Reraise]. *)

type cycle_at = Start_state | Later_state | Map_body

let cyclic_sdfg (at : cycle_at) : Sdfg.t =
  let sdfg = Sdfg.create "lazy" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "out");
  List.iter
    (fun n ->
      ignore (Sdfg.add_container sdfg ~dtype:Sdfg.DInt ~shape:[] n))
    [ "a"; "b" ];
  sdfg.param_order <- [ "out" ];
  let cycle (g : Sdfg.graph) =
    let a = Sdfg.add_node g (Sdfg.Access "a") in
    let b = Sdfg.add_node g (Sdfg.Access "b") in
    ignore (Sdfg.add_edge g ~memlet:(memlet "a" []) a b);
    ignore (Sdfg.add_edge g ~memlet:(memlet "b" []) b a)
  in
  (* A well-formed state storing 7 to [out]; with [Map_body] it then runs
     a one-iteration map whose body is cyclic. *)
  let store = Sdfg.add_state sdfg "store" in
  let g = store.s_graph in
  let t =
    Sdfg.add_node g
      (Sdfg.TaskletN (mk_tasklet "seven" [] [ "_o" ] [ ("_o", Texpr.TInt 7) ]))
  in
  let out = Sdfg.add_node g (Sdfg.Access "out") in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "out" []) t out);
  if at = Map_body then begin
    let body = Sdfg.new_graph () in
    cycle body;
    let map =
      Sdfg.add_node g
        (Sdfg.MapN
           {
             m_params = [ "i" ];
             m_ranges = [ Range.index Expr.zero ];
             m_body = body;
             m_par = None;
           })
    in
    (* orders the map after the store *)
    ignore (Sdfg.add_edge g ~memlet:(memlet "out" []) out map)
  end
  else begin
    cycle (Sdfg.add_state sdfg "cycle").s_graph;
    let first, second =
      if at = Start_state then ("cycle", "store") else ("store", "cycle")
    in
    Sdfg.add_istate_edge sdfg ~src:first ~dst:second ();
    sdfg.start_state <- first
  end;
  sdfg

let test_lazy_failure_timing () =
  List.iter
    (fun (at, what) ->
      let sdfg = cyclic_sdfg at in
      let outcome tier =
        let machine = Machine.create () in
        let out =
          Machine.alloc machine ~storage:Machine.Heap ~elems:1 ~elem_bytes:8
            ~zero_init:(Value.VInt 0)
        in
        match run_tier tier ~machine sdfg ~buffers:[ ("out", out, [||]) ] with
        | _ -> Alcotest.failf "%s: expected the cyclic graph to raise" what
        | exception e ->
            (Printexc.to_string e, Machine.metrics machine, Machine.peek out 0)
      in
      let et, mt, vt = outcome Tree and eb, mb, vb = outcome Bytecode in
      Alcotest.(check string) (what ^ ": same exception") et eb;
      check_metrics_equal what mt mb;
      let stored = Value.VInt (if at = Start_state then 0 else 7) in
      Alcotest.(check bool)
        (what ^ ": the store before the cycle ran in both tiers")
        true
        (Value.equal vt vb && Value.equal vt stored))
    [
      (Start_state, "cyclic start state");
      (Later_state, "cyclic later state");
      (Map_body, "cyclic map body");
    ]

(* ------------------------------------------------------------------ *)
(* Slot-resolved frames: the compiled tiers resolve names to frame slots
   when they compile, so the edge cases of the names themselves must keep
   the tree walkers' behaviour. *)

(* Both MLIR modes on a fresh machine each, with the arguments [args]
   builds on it and the counters then zeroed: the results or the trap
   message, and the machine metrics. *)
let mlir_both (m : Dcir_mlir.Ir.modul) ~(entry : string)
    (args : Machine.t -> Dcir_mlir.Interp.rtval list) =
  let run mode =
    let machine = Machine.create () in
    let args = args machine in
    Machine.reset_metrics machine;
    let out =
      match Dcir_mlir.Interp.run ~machine ~mode m ~entry args with
      | results, _ -> Ok results
      | exception Dcir_mlir.Interp.Trap msg -> Error msg
    in
    (out, Machine.metrics machine)
  in
  (run Dcir_mlir.Interp.Tree, run Dcir_mlir.Interp.Compiled)

(* The tree walker's outcome and metrics, after checking that the
   compiled mode's are the same. *)
let check_mlir_parity label m ~entry args =
  let (ot, mt), (oc, mc) = mlir_both m ~entry args in
  (match (ot, oc) with
  | Ok a, Ok b ->
      Alcotest.(check bool)
        (label ^ ": same results") true
        (List.length a = List.length b && List.for_all2 Value.equal a b)
  | Error a, Error b -> Alcotest.(check string) (label ^ ": same trap") a b
  | _ -> Alcotest.failf "%s: one mode trapped, the other did not" label);
  check_metrics_equal label mt mc;
  (ot, mt)

let test_mlir_use_before_def () =
  let open Dcir_mlir in
  (* [later] is used one op before it is defined: the read finds no
     binding (a never-set slot) after the multiply has been charged. *)
  let later = Arith.const_int Types.I64 2 in
  let f =
    Func_d.make_func ~name:"f" ~params:[ ("x", Types.I64) ] ~ret:[ Types.I64 ]
      (fun ps ->
        let one = Arith.const_int Types.I64 1 in
        let a = Arith.addi (List.hd ps) (Ir.result one) in
        let use = Arith.muli (Ir.result a) (Ir.result later) in
        [ one; a; use; later; Func_d.return_ [ Ir.result use ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  match
    check_mlir_parity "use before def" m ~entry:"f" (fun _ ->
        [ Interp.Scalar (Value.VInt 3) ])
  with
  | Error msg, _ ->
      Alcotest.(check bool) "traps on the unbound value" true
        (Tutil.contains msg "unbound SSA value")
  | Ok _, _ -> Alcotest.fail "use before def: expected a trap"

let test_mlir_self_recursion () =
  let open Dcir_mlir in
  (* fact(n) = n <= 1 ? 1 : n * fact(n - 1). Both modes keep one binding
     per SSA value for the whole run, so each level's call rebinds the
     caller's [n], and the multiply after the call reads the innermost
     level's n = 1: fact 6 evaluates to 1 in both, with the same charges. *)
  let fact =
    Func_d.make_func ~name:"fact" ~params:[ ("n", Types.I64) ]
      ~ret:[ Types.I64 ]
      (fun ps ->
        let n = List.hd ps in
        let one = Arith.const_int Types.I64 1 in
        let le = Arith.cmpi "sle" n (Ir.result one) in
        let dec = Arith.subi n (Ir.result one) in
        let call = Func_d.call "fact" [ Ir.result dec ] [ Types.I64 ] in
        let prod = Arith.muli n (Ir.result call) in
        let sel =
          Scf_d.if_ (Ir.result le) ~result_tys:[ Types.I64 ]
            ~then_ops:[ Scf_d.yield [ Ir.result one ] ]
            ~else_ops:[ dec; call; prod; Scf_d.yield [ Ir.result prod ] ]
        in
        [ one; le; sel; Func_d.return_ [ Ir.result sel ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ fact ];
  match
    check_mlir_parity "self-recursion" m ~entry:"fact" (fun _ ->
        [ Interp.Scalar (Value.VInt 6) ])
  with
  | Ok [ v ], _ ->
      Alcotest.(check bool) "one binding per value" true
        (Value.equal v (Value.VInt 1))
  | _ -> Alcotest.fail "self-recursion: expected one result"

(* Both SDFG tiers on a fresh machine each: the exception text (if any),
   the metrics, and the int outputs read back with [peek]. *)
let sdfg_both (sdfg : Sdfg.t) ~(outputs : (string * int) list) =
  let run tier =
    let machine = Machine.create () in
    let bufs =
      List.map
        (fun (name, n) ->
          ( name,
            Machine.alloc machine ~storage:Machine.Heap ~elems:n ~elem_bytes:8
              ~zero_init:(Value.VInt 0),
            if n = 1 then [||] else [| n |] ))
        outputs
    in
    let exn =
      match run_tier tier ~machine sdfg ~buffers:bufs with
      | _ -> None
      | exception e -> Some (Printexc.to_string e)
    in
    let values =
      List.concat_map
        (fun (_, b, _) -> List.init b.Machine.size (Machine.peek b))
        bufs
    in
    (exn, Machine.metrics machine, values)
  in
  let et, mt, vt = run Tree and eb, mb, vb = run Bytecode in
  Alcotest.(check (option string)) "same exception" et eb;
  check_metrics_equal (Sdfg.(sdfg.name)) mt mb;
  Alcotest.(check bool) "same outputs" true (List.for_all2 Value.equal vt vb);
  (et, vt)

let test_value_edge_never_ran () =
  (* A direct value edge out of an access node: no tasklet ever sets its
     source "nid:conn", so both tiers raise "not yet executed" after the
     first tasklet's store. *)
  let sdfg = Sdfg.create "lastedge" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "out");
  sdfg.param_order <- [ "out" ];
  let st = Sdfg.add_state sdfg "s" in
  let g = st.s_graph in
  let seven =
    Sdfg.add_node g
      (Sdfg.TaskletN (mk_tasklet "seven" [] [ "_o" ] [ ("_o", Texpr.TInt 7) ]))
  in
  let out = Sdfg.add_node g (Sdfg.Access "out") in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "out" []) seven out);
  let reader =
    Sdfg.add_node g
      (Sdfg.TaskletN
         (mk_tasklet "reader" [ "_in" ] [ "_r" ] [ ("_r", Texpr.TIn "_in") ]))
  in
  ignore (Sdfg.add_edge g ~src_conn:"_x" ~dst_conn:"_in" out reader);
  let out2 = Sdfg.add_node g (Sdfg.Access "out") in
  ignore (Sdfg.add_edge g ~src_conn:"_r" ~memlet:(memlet "out" []) reader out2);
  match sdfg_both sdfg ~outputs:[ ("out", 1) ] with
  | Some e, [ v ] ->
      Alcotest.(check bool) "not yet executed" true
        (Tutil.contains e "not yet executed");
      Alcotest.(check bool) "the first store ran" true
        (Value.equal v (Value.VInt 7))
  | _ -> Alcotest.fail "value edge: expected a trap"

(* A serial map over [i] in [0, 2] writing i to out[i], then a state
   storing the symbol [i] to [res]. With [bound_before], an interstate
   assignment binds i = 5 first, and the map restores it; without, the map
   removes its binding and the read after it traps. *)
let shadow_sdfg ~(bound_before : bool) : Sdfg.t =
  let sdfg = Sdfg.create "shadow" in
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt
       ~shape:[ Expr.int 3 ] "out");
  ignore
    (Sdfg.add_container sdfg ~transient:false ~dtype:Sdfg.DInt ~shape:[] "res");
  sdfg.param_order <- [ "out"; "res" ];
  ignore (Sdfg.add_state sdfg "init");
  let body = Sdfg.new_graph () in
  let t =
    Sdfg.add_node body
      (Sdfg.TaskletN (mk_tasklet "iota" [] [ "_o" ] [ ("_o", Texpr.TSym "i") ]))
  in
  let o = Sdfg.add_node body (Sdfg.Access "out") in
  ignore
    (Sdfg.add_edge body ~src_conn:"_o"
       ~memlet:(memlet "out" [ Range.index (Expr.sym "i") ])
       t o);
  let loop = Sdfg.add_state sdfg "loop" in
  ignore
    (Sdfg.add_node loop.s_graph
       (Sdfg.MapN
          {
            m_params = [ "i" ];
            m_ranges = [ Range.dim Expr.zero (Expr.int 2) ];
            m_body = body;
            m_par = None;
          }));
  let after = Sdfg.add_state sdfg "after" in
  let g = after.s_graph in
  let rd =
    Sdfg.add_node g
      (Sdfg.TaskletN (mk_tasklet "read" [] [ "_o" ] [ ("_o", Texpr.TSym "i") ]))
  in
  let r = Sdfg.add_node g (Sdfg.Access "res") in
  ignore (Sdfg.add_edge g ~src_conn:"_o" ~memlet:(memlet "res" []) rd r);
  Sdfg.add_istate_edge sdfg ~src:"init" ~dst:"loop"
    ~assign:(if bound_before then [ ("i", Expr.int 5) ] else [])
    ();
  Sdfg.add_istate_edge sdfg ~src:"loop" ~dst:"after" ();
  sdfg.start_state <- "init";
  sdfg

let test_map_symbol_shadowing () =
  let outputs = [ ("out", 3); ("res", 1) ] in
  (match sdfg_both (shadow_sdfg ~bound_before:true) ~outputs with
  | None, vs ->
      Alcotest.(check bool) "map ran, then i = 5 again" true
        (List.for_all2 Value.equal vs
           [ Value.VInt 0; Value.VInt 1; Value.VInt 2; Value.VInt 5 ])
  | Some e, _ -> Alcotest.failf "restored symbol: unexpected %s" e);
  match sdfg_both (shadow_sdfg ~bound_before:false) ~outputs with
  | Some e, vs ->
      Alcotest.(check bool) "unbound after the map" true
        (Tutil.contains e "unbound symbol 'i'");
      Alcotest.(check bool) "the map ran first" true
        (List.for_all2 Value.equal vs
           [ Value.VInt 0; Value.VInt 1; Value.VInt 2; Value.VInt 0 ])
  | None, _ -> Alcotest.fail "removed symbol: expected a trap"

(* ------------------------------------------------------------------ *)
(* Element copies of any rank ([CopyIdx]) and rank-specialized MLIR
   addressing: the compiled tiers' allocation-free paths keep the tree
   walkers' charge sequence, traps included. *)

(* One state copying [src] to [dst] over one access-to-access memlet, then
   ([tail]) copying [dst] on to a second destination. Containers are
   integer (name, shape, transient). *)
let copy_sdfg ?wcr ?tail ~(containers : (string * int list * bool) list)
    ~(src : string) (src_subset : Range.t) ~(dst : string)
    (dst_subset : Range.t) : Sdfg.t =
  let sdfg = Sdfg.create "copyidx" in
  List.iter
    (fun (name, shape, transient) ->
      ignore
        (Sdfg.add_container sdfg ~transient ~dtype:Sdfg.DInt
           ~shape:(List.map Expr.int shape) name))
    containers;
  sdfg.param_order <-
    List.filter_map (fun (n, _, t) -> if t then None else Some n) containers;
  let g = (Sdfg.add_state sdfg "s").s_graph in
  let a = Sdfg.add_node g (Sdfg.Access src) in
  let b = Sdfg.add_node g (Sdfg.Access dst) in
  ignore
    (Sdfg.add_edge g
       ~memlet:(memlet ?wcr ~other:dst_subset src src_subset)
       a b);
  (match tail with
  | Some (subset, dst2, dst2_subset) ->
      let c = Sdfg.add_node g (Sdfg.Access dst2) in
      ignore
        (Sdfg.add_edge g ~memlet:(memlet ~other:dst2_subset dst subset) b c)
  | None -> ());
  sdfg.start_state <- "s";
  sdfg

let idx (ns : int list) : Range.t =
  List.map (fun n -> Range.index (Expr.int n)) ns

(* Both SDFG tiers, each on a fresh machine whose argument buffers
   [(name, dims)] hold 1, 2, 3, ... in row-major order and whose counters
   start at zero: the exception text, the metrics and every argument's
   contents must agree. Returns the tree walker's. *)
let copy_both ~(label : string) (sdfg : Sdfg.t)
    (args : (string * int array) list) =
  let lowered = Dcir_bytecode.Lower.lower sdfg in
  Alcotest.(check bool) (label ^ ": lowers to copy.idx") true
    (Array.exists
       (fun i -> Dcir_bytecode.Isa.opcode_name i = "copy.idx")
       lowered.p_code);
  let run tier =
    let machine = Machine.create () in
    let bufs =
      List.map
        (fun (name, dims) ->
          let n = Array.fold_left ( * ) 1 dims in
          let b =
            Machine.alloc machine ~storage:Machine.Heap ~elems:n ~elem_bytes:8
              ~zero_init:(Value.VInt 0)
          in
          for i = 0 to n - 1 do
            Machine.poke b i (Value.VInt (i + 1))
          done;
          (name, b, dims))
        args
    in
    Machine.reset_metrics machine;
    let exn =
      match run_tier tier ~machine sdfg ~buffers:bufs with
      | _ -> None
      | exception e -> Some (Printexc.to_string e)
    in
    let values =
      List.concat_map
        (fun (_, b, _) ->
          List.init b.Machine.size (fun i -> Value.as_int (Machine.peek b i)))
        bufs
    in
    (exn, Machine.metrics machine, values)
  in
  let et, mt, vt = run Tree and eb, mb, vb = run Bytecode in
  Alcotest.(check (option string)) (label ^ ": same exception") et eb;
  check_metrics_equal label mt mb;
  Alcotest.(check (list int)) (label ^ ": same contents") vt vb;
  (et, mt, vt)

(* A [3x4], B [5], C [2x3x4] and the scalar s; contents 1, 2, 3, ... *)
let copy_containers =
  [ ("A", [ 3; 4 ], false); ("B", [ 5 ], false); ("C", [ 2; 3; 4 ], false);
    ("s", [], false) ]

let copy_args =
  [ ("A", [| 3; 4 |]); ("B", [| 5 |]); ("C", [| 2; 3; 4 |]); ("s", [||]) ]

(* The contents of [copy_args] after the element at flat index [at] of
   argument [name] became [v]. *)
let expect_contents (changes : (string * int * int) list) : int list =
  List.concat_map
    (fun (name, dims) ->
      List.init (Array.fold_left ( * ) 1 dims) (fun i ->
          match
            List.find_opt (fun (n, at, _) -> n = name && at = i) changes
          with
          | Some (_, _, v) -> v
          | None -> i + 1))
    copy_args

let test_copy_idx_shapes () =
  List.iter
    (fun (what, src, ssub, dst, dsub, (dname, at, moved, old)) ->
      List.iter
        (fun wcr ->
          let label =
            what ^ if wcr = None then "" else " (wcr sum)"
          in
          let sdfg =
            copy_sdfg ?wcr ~containers:copy_containers ~src ssub ~dst dsub
          in
          match copy_both ~label sdfg copy_args with
          | None, mt, vs ->
              let v = if wcr = None then moved else old + moved in
              Alcotest.(check (list int)) (label ^ ": moved one element")
                (expect_contents [ (dname, at, v) ])
                vs;
              Alcotest.(check int) (label ^ ": one load, one store")
                (if wcr = None then 1 else 2) mt.loads
          | Some e, _, _ -> Alcotest.failf "%s: unexpected %s" label e)
        [ None; Some Sdfg.WcrSum ])
    [
      (* A[1][2] = 7 into s (= 1) *)
      ("2->0", "A", idx [ 1; 2 ], "s", [], ("s", 0, 7, 1));
      (* s = 1 into A[2][3] (= 12) *)
      ("0->2", "s", [], "A", idx [ 2; 3 ], ("A", 11, 1, 12));
      (* B[3] = 4 into s *)
      ("1->0", "B", idx [ 3 ], "s", [], ("s", 0, 4, 1));
      (* C[1][2][3] = 24 into B[4] (= 5) *)
      ("3->1", "C", idx [ 1; 2; 3 ], "B", idx [ 4 ], ("B", 4, 24, 5));
    ]

let test_copy_idx_rank_mismatch () =
  List.iter
    (fun (what, src, ssub, dst, dsub, needle) ->
      let sdfg = copy_sdfg ~containers:copy_containers ~src ssub ~dst dsub in
      match copy_both ~label:what sdfg copy_args with
      | Some e, mt, _ ->
          Alcotest.(check bool) (what ^ ": rank trap") true
            (Tutil.contains e needle);
          (* a destination mismatch traps after the source load *)
          Alcotest.(check int) (what ^ ": loads before the trap")
            (if dst = "A" then 1 else 0) mt.loads
      | None, _, _ -> Alcotest.failf "%s: expected a rank trap" what)
    [
      ( "source rank", "A", idx [ 1 ], "s", [],
        "container 'A': 1 indices for rank 2" );
      ("destination rank", "C", idx [ 0; 1; 2 ], "A", idx [ 1 ],
        "container 'A': 1 indices for rank 2");
    ]

let test_copy_idx_lazy_transient () =
  List.iter
    (fun alloc_state ->
      let label =
        "lazy transient" ^ if alloc_state = None then "" else " (state alloc)"
      in
      (* A[2][1] = 10 into the transient T[3], then T[3] into s *)
      let sdfg =
        copy_sdfg
          ~containers:(copy_containers @ [ ("T", [ 4 ], true) ])
          ~src:"A" (idx [ 2; 1 ]) ~dst:"T" (idx [ 3 ])
          ~tail:(idx [ 3 ], "s", [])
      in
      (Sdfg.container sdfg "T").alloc_state <- alloc_state;
      match copy_both ~label sdfg copy_args with
      | None, mt, vs ->
          Alcotest.(check (list int)) (label ^ ": through the transient")
            (expect_contents [ ("s", 0, 10) ])
            vs;
          Alcotest.(check int) (label ^ ": one heap allocation") 1
            mt.heap_allocs
      | Some e, _, _ -> Alcotest.failf "%s: unexpected %s" label e)
    [ None; Some "s" ]

let test_copy_idx_scalar_symbol () =
  (* The source index [k] is a scalar container, not a symbol: reading it
     is a charged load (k = 1, so A[1][3] = 8 moves). *)
  let sdfg =
    copy_sdfg
      ~containers:(copy_containers @ [ ("k", [], false) ])
      ~src:"A"
      [ Range.index (Expr.sym "k"); Range.index (Expr.int 3) ]
      ~dst:"s" []
  in
  match copy_both ~label:"scalar index" sdfg (copy_args @ [ ("k", [||]) ]) with
  | None, mt, vs ->
      Alcotest.(check (list int)) "scalar index: A[1][3] moved"
        (expect_contents [ ("s", 0, 8) ] @ [ 1 ])
        vs;
      (* lo and hi each read k: two index loads and the element's *)
      Alcotest.(check int) "scalar index: three loads" 3 mt.loads
  | Some e, _, _ -> Alcotest.failf "scalar index: unexpected %s" e

(* f(a) loads a[0][1][0]..., doubles it, stores it back and returns the
   reloaded element, with [rank] indices; run on a buffer of rank
   [buf_rank] holding 1, 2, 3, ... *)
let memref_rank_parity ~(rank : int) ~(buf_rank : int) =
  let open Dcir_mlir in
  let f =
    Func_d.make_func ~name:"f"
      ~params:
        [
          ( "a",
            Types.MemRef (Types.F64, List.init rank (fun _ -> Types.Dynamic))
          );
        ]
      ~ret:[ Types.F64 ]
      (fun ps ->
        let a = List.hd ps in
        let cs =
          List.init rank (fun k -> Arith.const_int Types.Index (k mod 2))
        in
        let ivs = List.map Ir.result cs in
        let ld = Memref_d.load a ivs in
        let two = Arith.const_float Types.F64 2.0 in
        let prod = Arith.mulf (Ir.result ld) (Ir.result two) in
        let st = Memref_d.store (Ir.result prod) a ivs in
        let ld2 = Memref_d.load a ivs in
        cs @ [ ld; two; prod; st; ld2; Func_d.return_ [ Ir.result ld2 ] ])
  in
  let m = Ir.new_module () in
  m.funcs <- [ f ];
  let dims = Array.init buf_rank (fun k -> k + 2) in
  check_mlir_parity
    (Printf.sprintf "rank-%d access on rank %d" rank buf_rank)
    m ~entry:"f"
    (fun machine ->
      let n = Array.fold_left ( * ) 1 dims in
      let buf =
        Machine.alloc machine ~storage:Machine.Heap ~elems:n ~elem_bytes:8
          ~zero_init:(Value.VFloat 0.0)
      in
      for i = 0 to n - 1 do
        Machine.poke buf i (Value.VFloat (float_of_int (i + 1)))
      done;
      [ Interp.Buf { buf; dims } ])

let test_mlir_memref_ranks () =
  List.iter
    (fun rank ->
      (* the flat index of (0, 1, 0, 1, ...) over dims 2, 3, 4, 5 *)
      let lin = ref 0 in
      for k = 0 to rank - 1 do
        lin := (!lin * (k + 2)) + (k mod 2)
      done;
      (match memref_rank_parity ~rank ~buf_rank:rank with
      | Ok [ v ], mt ->
          Alcotest.(check bool)
            (Printf.sprintf "rank %d: doubled element" rank)
            true
            (Value.equal v (Value.VFloat (2.0 *. float_of_int (!lin + 1))));
          Alcotest.(check int)
            (Printf.sprintf "rank %d: rank-1 Int_alu per access" rank)
            (3 * (rank - 1)) mt.int_ops
      | _ -> Alcotest.failf "rank %d: expected one result" rank);
      List.iter
        (fun buf_rank ->
          match memref_rank_parity ~rank ~buf_rank with
          | Error msg, mt ->
              Alcotest.(check string)
                (Printf.sprintf "rank %d on %d: trap" rank buf_rank)
                (Printf.sprintf "index count %d does not match rank %d" rank
                   buf_rank)
                msg;
              Alcotest.(check int) "no access charged" 0 mt.int_ops
          | Ok _, _ ->
              Alcotest.failf "rank %d on %d: expected a trap" rank buf_rank)
        [ rank - 1; rank + 1 ])
    [ 1; 2; 3; 4 ]

let suite =
  ( "interp-plans",
    [
      Alcotest.test_case "sym_env scalar read charges a load" `Quick
        test_symenv_scalar_load;
      Alcotest.test_case "10k-state construction is linear" `Quick
        test_construction_scale;
      Alcotest.test_case "float->int truncates toward zero" `Quick
        test_toint_truncation;
      Alcotest.test_case "float->int traps on nan/inf, uniformly" `Quick
        test_toint_traps;
      Alcotest.test_case "min/max float cross-interpreter parity" `Quick
        test_float_minmax_cross_interp;
      Alcotest.test_case "fmod float semantics" `Quick test_float_mod_semantics;
      Alcotest.test_case "BMod/BMin/BMax tasklet tree-vs-plan parity" `Quick
        test_float_binops_tasklet_parity;
      Alcotest.test_case "bytecode trap-timing parity" `Quick
        test_bytecode_trap_timing;
      Alcotest.test_case "lazy failure timing of malformed graphs" `Quick
        test_lazy_failure_timing;
      Alcotest.test_case "MLIR use before def: same trap, same metrics" `Quick
        test_mlir_use_before_def;
      Alcotest.test_case "MLIR self-recursive call parity" `Quick
        test_mlir_self_recursion;
      Alcotest.test_case "value edge whose source never ran" `Quick
        test_value_edge_never_ran;
      Alcotest.test_case "serial map restores or removes its symbol" `Quick
        test_map_symbol_shadowing;
      Alcotest.test_case "copy.idx 2->0, 0->2, 1->0, 3->1, with and without wcr"
        `Quick test_copy_idx_shapes;
      Alcotest.test_case "copy.idx subset rank mismatch: same trap" `Quick
        test_copy_idx_rank_mismatch;
      Alcotest.test_case "copy.idx into a lazily allocated transient" `Quick
        test_copy_idx_lazy_transient;
      Alcotest.test_case "copy.idx index reading a scalar container" `Quick
        test_copy_idx_scalar_symbol;
      Alcotest.test_case "MLIR memref ranks 1-4: same results and traps" `Quick
        test_mlir_memref_ranks;
      Alcotest.test_case "fuzz corpus plan-vs-tree differential" `Slow
        test_fuzz_tier_differential;
      Alcotest.test_case "polybench plan-vs-tree metric equality" `Slow
        test_polybench_tier_differential;
    ] )
