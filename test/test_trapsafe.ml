(** Trap-safety regression tests (optimization soundness): the O2
    pipelines must preserve trap behaviour — a division that did not
    execute in the source must not execute after optimization, and one
    that did must still fire — pinned across both interpreter modes and
    every pipeline. Plus unit tests for the generic {!Dataflow} framework
    (diamond fixpoints, transfer monotonicity), the store-forward
    multi-key hygiene fix, and LCM's structural and cycle-count wins. *)

open Dcir_mlir
open Dcir_cfront
module P = Dcir_mlir_passes
module Core = Dcir_core.Pipelines
module Df = Dcir_mlir_passes.Dataflow

let count_ops (m : Ir.modul) (name : string) : int =
  let n = ref 0 in
  Ir.walk_module m (fun o -> if String.equal o.Ir.name name then incr n);
  !n

let compile_with (passes : Pass.t list) (src : string) : Ir.modul =
  let m = Polygeist.compile src in
  ignore (Pass.run_to_fixpoint passes m);
  Verifier.verify_exn m;
  m

(* ------------------------------------------------------------------ *)
(* Trap parity: reference (unoptimized) vs every O2 pipeline, in both
   interpreter modes. *)

type outcome = Trapped | Finished of Core.run_result

let outcome_name = function Trapped -> "trap" | Finished _ -> "finish"

let run_opt (mode : Core.interp_mode) (kind : Core.kind) ~(src : string)
    ~(entry : string) (args : Core.arg list) : outcome =
  match
    let c = Core.compile kind ~src ~entry in
    Core.run ~interp_mode:mode c ~entry args
  with
  | r -> Finished r
  | exception e -> (
      match Dcir_fuzz.Oracle.trap_kind_of_exn e with
      | Some _ -> Trapped
      | None -> raise e)

let run_ref (mode : Core.interp_mode) ~(src : string) ~(entry : string)
    (args : Core.arg list) : outcome =
  match
    Core.run ~interp_mode:mode (Core.CMlir (Polygeist.compile src)) ~entry
      args
  with
  | r -> Finished r
  | exception e -> (
      match Dcir_fuzz.Oracle.trap_kind_of_exn e with
      | Some _ -> Trapped
      | None -> raise e)

let all_kinds =
  [
    ("gcc", Core.Gcc); ("clang", Core.Clang); ("mlir", Core.Mlir);
    ("dcir", Core.Dcir);
  ]

(** Every pipeline at O2 must agree with the unoptimized reference on
    whether the program traps, and on outputs when it does not. *)
let assert_parity ?(kinds = all_kinds) ~(what : string) ~(src : string)
    ~(entry : string) (args : Core.arg list) : unit =
  List.iter
    (fun (mode : Core.interp_mode) ->
      let reference = run_ref mode ~src ~entry args in
      List.iter
        (fun (kname, kind) ->
          let o = run_opt mode kind ~src ~entry args in
          let label =
            Printf.sprintf "%s [%s, %s]" what kname
              (match mode with `Tree -> "tree" | `Compiled -> "compiled")
          in
          match (reference, o) with
          | Trapped, Trapped -> ()
          | Finished a, Finished b ->
              Alcotest.(check (option string))
                (label ^ " outputs match")
                None (Core.divergence a b)
          | a, b ->
              Alcotest.failf "%s: reference %s but pipeline %s" label
                (outcome_name a) (outcome_name b))
        kinds)
    [ `Tree; `Compiled ]

(* A division inside a loop that runs zero times must not trap after
   optimization (pre-fix LICM hoisted it into the preheader). *)
let src_zero_trip =
  {|
int f(int n, int d) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + 100 / d; }
  return s;
}
|}

let test_parity_zero_trip () =
  assert_parity ~what:"zero-trip" ~src:src_zero_trip ~entry:"f"
    [ Core.AInt 0; Core.AInt 0 ];
  assert_parity ~what:"nonzero-trip" ~src:src_zero_trip ~entry:"f"
    [ Core.AInt 2; Core.AInt 0 ];
  assert_parity ~what:"benign" ~src:src_zero_trip ~entry:"f"
    [ Core.AInt 5; Core.AInt 3 ]

(* An unused trapping division must survive DCE: it is the only occurrence,
   so nothing dominates it. *)
let src_unused =
  {|
int g(int a, int d) {
  int t = a / d;
  return a + 1;
}
|}

(* The control-centric pipelines only: in the data-centric IR a value
   with no dataflow edge to any output is structurally absent, so the
   dcir pipeline drops unobservable divisions by construction — which is
   why the fuzzer's trap grammar always stores division results. The
   contract under test here is the control-side one: [Dce] must keep an
   unused trapping op with no dominating twin. *)
let test_parity_unused_division () =
  let kinds = [ ("gcc", Core.Gcc); ("clang", Core.Clang); ("mlir", Core.Mlir) ] in
  assert_parity ~kinds ~what:"unused-div" ~src:src_unused ~entry:"g"
    [ Core.AInt 7; Core.AInt 0 ];
  assert_parity ~kinds ~what:"unused-div-ok" ~src:src_unused ~entry:"g"
    [ Core.AInt 7; Core.AInt 2 ];
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Dce.pass ]
      src_unused
  in
  Alcotest.(check int) "unused division survives DCE" 1
    (count_ops m "arith.divsi")

(* CSE may merge two identical divisions (the first dominates the second
   in the same region); the merged op still traps for d = 0. *)
let src_cse_pair =
  {|
int h(int a, int d) {
  int x = a / d;
  int y = a / d;
  return x + y;
}
|}

let test_parity_cse_pair () =
  assert_parity ~what:"cse-pair" ~src:src_cse_pair ~entry:"h"
    [ Core.AInt 9; Core.AInt 0 ];
  assert_parity ~what:"cse-pair-ok" ~src:src_cse_pair ~entry:"h"
    [ Core.AInt 9; Core.AInt 3 ];
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Dce.pass ]
      src_cse_pair
  in
  Alcotest.(check int) "one division retained" 1 (count_ops m "arith.divsi")

(* The Bril hoist-thru-loop shape: a loop-invariant division inside a
   provably nonzero-trip loop. LCM may hoist it (constant bounds prove the
   loop runs), and trap behaviour is unchanged either way. *)
let src_hoist =
  {|
int k(int a, int d) {
  int s = 0;
  for (int i = 0; i < 4; i++) { s = s + a / d; }
  return s;
}
|}

let divsi_inside_loop (m : Ir.modul) : int =
  let n = ref 0 in
  Ir.walk_module m (fun o ->
      if String.equal o.Ir.name "scf.for" then
        List.iter
          (fun r ->
            Ir.walk_region r (fun inner ->
                if String.equal inner.Ir.name "arith.divsi" then incr n))
          o.Ir.regions);
  !n

let test_parity_lcm_hoist () =
  assert_parity ~what:"lcm-hoist" ~src:src_hoist ~entry:"k"
    [ Core.AInt 8; Core.AInt 0 ];
  assert_parity ~what:"lcm-hoist-ok" ~src:src_hoist ~entry:"k"
    [ Core.AInt 8; Core.AInt 2 ];
  (* Structurally: LCM alone (no LICM) moves the division out of the
     proven-nonzero loop... *)
  let m =
    compile_with [ P.Mem2reg.pass; P.Canonicalize.pass; P.Lcm.pass ] src_hoist
  in
  Alcotest.(check int) "division hoisted by LCM" 0 (divsi_inside_loop m);
  Alcotest.(check int) "division still present" 1 (count_ops m "arith.divsi");
  (* ...but never out of a possibly-zero-trip loop (symbolic bound): the
     bypass edge stops anticipability at the loop entry. *)
  let m0 =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Lcm.pass ]
      src_zero_trip
  in
  Alcotest.(check int) "division stays in zero-trip loop" 1
    (divsi_inside_loop m0)

(* ------------------------------------------------------------------ *)
(* Dominance-based trap dedup: CSE and DCE decide trapping-op reuse on
   the {!Dataflow} CFG rather than region scoping. A division inside a
   proven-nonzero-trip loop dominates the code after the loop, so an
   unused duplicate there may go; with a symbolic (possibly-zero) bound
   the bypass edge breaks dominance and the duplicate must stay; and
   sibling [scf.if] branches never dominate each other. *)

let src_dom_nonzero =
  {|
int wa(int a, int d) {
  int s = 0;
  for (int i = 0; i < 4; i++) { s = s + a / d; }
  int t = a / d;
  return s;
}
|}

let src_dom_zero_trip =
  {|
int wb(int a, int d, int n) {
  int s = 0;
  for (int i = 0; i < n; i++) { s = s + a / d; }
  int t = a / d;
  return s;
}
|}

let src_dom_siblings =
  {|
int wc(int a, int d, int c) {
  int x = 0;
  if (c > 0) { x = a / d; } else { x = a / d + 1; }
  return x;
}
|}

let ctl_kinds =
  [ ("gcc", Core.Gcc); ("clang", Core.Clang); ("mlir", Core.Mlir) ]

let test_dominance_trap_dedup () =
  (* Proven-nonzero loop: the in-loop division dominates the unused
     post-loop duplicate, so DCE may delete the duplicate — the witness
     already trapped or passed with the same operands. *)
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Dce.pass ]
      src_dom_nonzero
  in
  Alcotest.(check int) "post-loop duplicate deleted" 1
    (count_ops m "arith.divsi");
  Alcotest.(check int) "surviving division is the in-loop witness" 1
    (divsi_inside_loop m);
  assert_parity ~kinds:ctl_kinds ~what:"dom-nonzero" ~src:src_dom_nonzero
    ~entry:"wa"
    [ Core.AInt 7; Core.AInt 0 ];
  (* ...but with a possibly-zero trip count the bypass edge breaks
     dominance: on the n = 0 path the duplicate's trap is the only one,
     so neither CSE nor DCE may touch it. *)
  let m0 =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Dce.pass ]
      src_dom_zero_trip
  in
  Alcotest.(check int) "zero-trip duplicate survives" 2
    (count_ops m0 "arith.divsi");
  assert_parity ~kinds:ctl_kinds ~what:"dom-zero-trip"
    ~src:src_dom_zero_trip ~entry:"wb"
    [ Core.AInt 7; Core.AInt 0; Core.AInt 0 ];
  (* Sibling branches never dominate each other: same-signature divisions
     in the two arms stay independent. *)
  let m1 =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Dce.pass ]
      src_dom_siblings
  in
  Alcotest.(check int) "sibling divisions not merged" 2
    (count_ops m1 "arith.divsi")

(* ------------------------------------------------------------------ *)
(* Dataflow framework units *)

let diamond_src =
  {|
int df(int a, int b, int c) {
  int r = a * b;
  if (c > 0) { r = r + a; } else { r = r - b; }
  return r + 1;
}
|}

let diamond_cfg () : Df.cfg =
  let m = Polygeist.compile diamond_src in
  ignore (Pass.run_to_fixpoint [ P.Mem2reg.pass ] m);
  let f = Option.get (Ir.find_func m "df") in
  Df.build_cfg (Option.get f.Ir.fbody)

let test_dataflow_diamond () =
  let cfg = diamond_cfg () in
  let n = Array.length cfg.Df.blocks in
  let fork =
    match
      Array.to_list cfg.Df.blocks
      |> List.find_opt (fun (b : Df.block) -> List.length b.Df.succs = 2)
    with
    | Some b -> b.Df.bid
    | None -> Alcotest.fail "no fork block in diamond CFG"
  in
  let join =
    match
      Array.to_list cfg.Df.blocks
      |> List.find_opt (fun (b : Df.block) -> List.length b.Df.preds = 2)
    with
    | Some b -> b.Df.bid
    | None -> Alcotest.fail "no join block in diamond CFG"
  in
  let branches = cfg.Df.blocks.(fork).Df.succs in
  Alcotest.(check int) "two branches" 2 (List.length branches);
  (* Forward reachability (union meet): every block reaches itself and the
     join sees both branches. *)
  let reach =
    Df.solve cfg ~dir:Df.Forward ~nbits:n
      ~meet:`Union
      ~boundary:(Df.Bits.create ~full:false n)
      ~transfer:(fun b x ->
        let s = Df.Bits.copy x in
        Df.Bits.add s b;
        s)
      ()
  in
  List.iter
    (fun br ->
      Alcotest.(check bool)
        (Printf.sprintf "branch %d reaches join" br)
        true
        (Df.Bits.mem reach.Df.inb.(join) br))
    branches;
  let b0 = List.hd branches and b1 = List.nth branches 1 in
  Alcotest.(check bool) "branches do not reach each other" false
    (Df.Bits.mem reach.Df.inb.(b0) b1 || Df.Bits.mem reach.Df.inb.(b1) b0);
  (* Backward reachability: the fork is reached (backwards) from both
     branches. *)
  let breach =
    Df.solve cfg ~dir:Df.Backward ~nbits:n
      ~meet:`Union
      ~boundary:(Df.Bits.create ~full:false n)
      ~transfer:(fun b x ->
        let s = Df.Bits.copy x in
        Df.Bits.add s b;
        s)
      ()
  in
  List.iter
    (fun br ->
      Alcotest.(check bool)
        (Printf.sprintf "fork backward-reaches branch %d" br)
        true
        (Df.Bits.mem breach.Df.inb.(fork) br))
    branches;
  (* Dominators: the fork dominates branches and join; neither branch
     dominates the join. *)
  let doms = Df.dominators cfg in
  List.iter
    (fun br ->
      Alcotest.(check bool) "fork dominates branch" true
        (Df.dominates doms fork br))
    branches;
  Alcotest.(check bool) "fork dominates join" true
    (Df.dominates doms fork join);
  Alcotest.(check bool) "branches do not dominate join" false
    (Df.dominates doms b0 join || Df.dominates doms b1 join)

(* Gen/kill transfer functions are monotone: x ⊆ y implies f(x) ⊆ f(y).
   Smoke-checked on pseudo-random gen/kill/input triples (fixed LCG, no
   wall-clock seeds). *)
let test_transfer_monotone () =
  let nbits = 24 in
  let state = ref 12345 in
  let next () =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state
  in
  let random_bits () =
    let s = Df.Bits.create ~full:false nbits in
    for i = 0 to nbits - 1 do
      if next () land 3 = 0 then Df.Bits.add s i
    done;
    s
  in
  for _ = 1 to 50 do
    let gen = random_bits () and kill = random_bits () in
    let x = random_bits () in
    (* y = x ∪ (more bits) ⊇ x *)
    let y = Df.Bits.copy x in
    Df.Bits.union_into y (random_bits ());
    let f s =
      let r = Df.Bits.copy s in
      Df.Bits.diff_into r kill;
      Df.Bits.union_into r gen;
      r
    in
    let fx = f x and fy = f y in
    for i = 0 to nbits - 1 do
      if Df.Bits.mem fx i then
        Alcotest.(check bool) "monotone: f(x) ⊆ f(y)" true (Df.Bits.mem fy i)
    done
  done

(* ------------------------------------------------------------------ *)
(* Store-forward hygiene: two stores to distinct constant indices must
   both stay tracked, so both following loads forward. *)

let test_store_forward_two_keys () =
  let src =
    {|
double p(double a, double b) {
  double t[2];
  t[0] = a;
  t[1] = b;
  return t[0] + t[1];
}
|}
  in
  let m =
    compile_with
      [ P.Mem2reg.pass; P.Canonicalize.pass; P.Cse.pass; P.Store_forward.pass;
        P.Dce.pass ]
      src
  in
  Alcotest.(check int) "both loads forwarded" 0 (count_ops m "memref.load");
  let results, _ =
    Interp.run m ~entry:"p"
      [
        Interp.Scalar (Dcir_machine.Value.VFloat 2.5);
        Interp.Scalar (Dcir_machine.Value.VFloat 4.0);
      ]
  in
  Alcotest.(check (float 1e-9)) "semantics" 6.5
    (Dcir_machine.Value.as_float (List.hd results))

(* ------------------------------------------------------------------ *)
(* LCM local availability: repeated loads of the same element with no
   intervening store collapse to one (the floyd-warshall shape). *)

let test_lcm_local_reuse () =
  let src =
    {|
int q(int a[4], int i, int j) {
  int m = a[i] + a[j];
  int n = a[i] + a[j];
  return m + n;
}
|}
  in
  let before = compile_with [ P.Mem2reg.pass ] src in
  Alcotest.(check int) "four loads before" 4 (count_ops before "memref.load");
  let after = compile_with [ P.Mem2reg.pass; P.Lcm.pass ] src in
  Alcotest.(check int) "two loads after" 2 (count_ops after "memref.load")

(* LCM strictly reduces executed cycles on the Fig 6 gap kernels it
   targets (and the exact per-product costs in compile_digests.expected
   show any kernel it regresses). *)
let test_lcm_reduces_cycles () =
  List.iter
    (fun wname ->
      let w =
        List.find
          (fun (w : Dcir_workloads.Workload.t) -> String.equal w.name wname)
          Dcir_workloads.Polybench.all
      in
      let cycles disable =
        let c = Core.compile ~disable Core.Dcir ~src:w.src ~entry:w.entry in
        let r = Core.run c ~entry:w.entry (w.args ()) in
        r.Core.metrics.Dcir_machine.Metrics.cycles
      in
      let with_lcm = cycles [] and without_lcm = cycles [ "lcm" ] in
      Alcotest.(check bool)
        (Printf.sprintf "%s: lcm strictly reduces cycles (%.0f < %.0f)" wname
           with_lcm without_lcm)
        true
        (with_lcm < without_lcm))
    [ "floyd-warshall"; "cholesky"; "correlation" ]

(* The word-wide bitset against a [bool array] model, at sizes around the
   word boundaries. [Add]/[Remove] take (on [b]?, index); the set
   operations take their direction ([true]: [b op= a]); [Copy] replaces
   the destination with a copy of the source. [mem], [iter] order and
   [equal] are checked against the model after every step, so the bits
   above [n] that [create ~full] leaves set must never count. *)
type bits_op =
  | Add of bool * int
  | Remove of bool * int
  | Inter of bool
  | Union of bool
  | Diff of bool
  | Copy of bool

let gen_bits_case : (int * bool * bool * bits_op list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let* n = oneofl [ 0; 1; 61; 62; 63; 64; 124; 125; 200 ] in
  let* full_a = bool in
  let* full_b = bool in
  let index = int_bound (max 0 (n - 1)) in
  let set_ops =
    [ (1, map (fun d -> Inter d) bool); (1, map (fun d -> Union d) bool);
      (1, map (fun d -> Diff d) bool); (1, map (fun d -> Copy d) bool) ]
  in
  let point_ops =
    if n = 0 then []
    else
      [ (4, map2 (fun d i -> Add (d, i)) bool index);
        (4, map2 (fun d i -> Remove (d, i)) bool index) ]
  in
  let* ops = list_size (int_range 0 80) (frequency (set_ops @ point_ops)) in
  pure (n, full_a, full_b, ops)

let print_bits_case ((n, fa, fb, ops) : int * bool * bool * bits_op list) =
  let op = function
    | Add (d, i) -> Printf.sprintf "add %b %d" d i
    | Remove (d, i) -> Printf.sprintf "remove %b %d" d i
    | Inter d -> Printf.sprintf "inter %b" d
    | Union d -> Printf.sprintf "union %b" d
    | Diff d -> Printf.sprintf "diff %b" d
    | Copy d -> Printf.sprintf "copy %b" d
  in
  Printf.sprintf "n=%d full_a=%b full_b=%b [%s]" n fa fb
    (String.concat "; " (List.map op ops))

let prop_bits_model =
  QCheck2.Test.make ~count:500 ~print:print_bits_case
    ~name:"dataflow: word-wide Bits agree with a bool-array model"
    gen_bits_case (fun (n, full_a, full_b, ops) ->
      let a = ref (Df.Bits.create ~full:full_a n)
      and b = ref (Df.Bits.create ~full:full_b n) in
      let ma = ref (Array.make n full_a) and mb = ref (Array.make n full_b) in
      let all = List.init n Fun.id in
      let agree () =
        let elems bits =
          let acc = ref [] in
          Df.Bits.iter (fun i -> acc := i :: !acc) bits;
          List.rev !acc
        in
        let model m = List.filter (fun i -> m.(i)) all in
        List.for_all
          (fun i -> Df.Bits.mem !a i = !ma.(i) && Df.Bits.mem !b i = !mb.(i))
          all
        && elems !a = model !ma
        && elems !b = model !mb
        && Df.Bits.equal !a !b = (!ma = !mb)
        && Df.Bits.equal !b !a = (!ma = !mb)
      in
      let apply op =
        let dst, mdst, src, msrc =
          match op with
          | Add (d, _) | Remove (d, _) | Inter d | Union d | Diff d | Copy d ->
              if d then (b, mb, a, ma) else (a, ma, b, mb)
        in
        let zip f =
          Array.iteri (fun i x -> !mdst.(i) <- f x !msrc.(i)) !mdst
        in
        match op with
        | Add (_, i) -> Df.Bits.add !dst i; !mdst.(i) <- true
        | Remove (_, i) -> Df.Bits.remove !dst i; !mdst.(i) <- false
        | Inter _ -> Df.Bits.inter_into !dst !src; zip ( && )
        | Union _ -> Df.Bits.union_into !dst !src; zip ( || )
        | Diff _ -> Df.Bits.diff_into !dst !src; zip (fun x y -> x && not y)
        | Copy _ -> dst := Df.Bits.copy !src; mdst := Array.copy !msrc
      in
      agree () && List.for_all (fun op -> apply op; agree ()) ops)

(* Two gcc-pipeline miscompiles the fuzzer found (case seeds
   2247413776766629073 and 3187361522204351327), shrunk. Inside a loop an
   element is read, modified and stored, then loaded again. LCM hoisted the
   first load (and the arithmetic on it) out of the loop and reused that
   single value in every iteration, while the store stayed inside: from the
   second iteration on the read missed the previous iteration's store. *)
let src_lcm_rmw_1d =
  {|
void kernel(double A[3], double alpha) {
  alpha = (-0.25);
  double t8 = (cos((-1.0)) * (alpha * A[0]));
  for (int i9 = (3 - 1); i9 >= 0; i9--) {
    A[2] *= t8;
    double t10 = (((i9 + i9) == (i9 % 6)) ? (0.75 * A[2]) : A[i9]);
  }
}
|}

let src_lcm_rmw_2d =
  {|
double kernel(double A[2][5], double B[4][2], double C[3][4], double alpha, double beta) {
  for (int i3 = 0; i3 < 5; i3++) {
    B[2][1] += (0.75 + (beta * (-2.0)));
    C[1][3] -= ((B[1][1] * B[2][1]) / (fabs(alpha) + 1.0));
  }
  return alpha;
}
|}

let test_lcm_loop_rmw () =
  let arr dims =
    let n = Array.fold_left ( * ) 1 dims in
    Core.AFloatArr (Array.init n (fun i -> 0.5 +. (0.25 *. float_of_int i)), dims)
  in
  assert_parity ~what:"lcm-rmw-1d" ~src:src_lcm_rmw_1d ~entry:"kernel"
    [ arr [| 3 |]; Core.AFloat 1.5 ];
  assert_parity ~what:"lcm-rmw-2d" ~src:src_lcm_rmw_2d ~entry:"kernel"
    [ arr [| 2; 5 |]; arr [| 4; 2 |]; arr [| 3; 4 |]; Core.AFloat (-1.5);
      Core.AFloat 0.75 ]

let suite =
  ( "trap-safety",
    [
      Alcotest.test_case "parity: division in zero-trip loop" `Quick
        test_parity_zero_trip;
      Alcotest.test_case "parity: unused trapping division" `Quick
        test_parity_unused_division;
      Alcotest.test_case "parity: CSE'd division pair" `Quick
        test_parity_cse_pair;
      Alcotest.test_case "parity: LCM hoist-through-loop" `Quick
        test_parity_lcm_hoist;
      Alcotest.test_case "dominance: trap dedup on the CFG" `Quick
        test_dominance_trap_dedup;
      Alcotest.test_case "dataflow: diamond fixpoints + dominators" `Quick
        test_dataflow_diamond;
      Alcotest.test_case "dataflow: transfer monotonicity" `Quick
        test_transfer_monotone;
      QCheck_alcotest.to_alcotest prop_bits_model;
      Alcotest.test_case "store-forward: two keys tracked" `Quick
        test_store_forward_two_keys;
      Alcotest.test_case "lcm: local load reuse" `Quick test_lcm_local_reuse;
      Alcotest.test_case "lcm: loop read-modify-write keeps its loads" `Quick
        test_lcm_loop_rmw;
      Alcotest.test_case "lcm: reduces cycles on gap kernels" `Slow
        test_lcm_reduces_cycles;
    ] )
