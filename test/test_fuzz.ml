(** Tests for the robustness subsystem: the fuzz generator/oracle/shrinker
    and checked pass execution (snapshot / re-verify / rollback with crash
    reproducers) in both pass drivers. *)

module Gen = Dcir_fuzz.Gen
module Oracle = Dcir_fuzz.Oracle
module Shrink = Dcir_fuzz.Shrink
module Rng = Dcir_fuzz.Rng
module Ir = Dcir_mlir.Ir
module Pass = Dcir_mlir.Pass
module Verifier = Dcir_mlir.Verifier
module Diag = Dcir_support.Diagnostics
module Sdfg = Dcir_sdfg.Sdfg
module Driver = Dcir_dace_passes.Driver
module Pipelines = Dcir_core.Pipelines

(* Printed MLIR modulo SSA value numbering: snapshot/restore clones the
   module, drawing fresh ids from the global generator, so only the numeric
   suffixes differ between a module and its rollback. *)
let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Generator *)

let test_generator_deterministic () =
  let a = Gen.generate 12345 and b = Gen.generate 12345 in
  Alcotest.(check string) "same seed, same source" a.src b.src;
  let c = Gen.generate 54321 in
  Alcotest.(check bool) "different seed, different source" true
    (not (String.equal a.src c.src))

let test_generated_programs_compile () =
  (* Every generated program must pass the full frontend — the generator's
     well-typedness guarantee. *)
  for i = 0 to 24 do
    let case = Gen.generate (Rng.derive 7 i) in
    match Dcir_cfront.Polygeist.compile case.src with
    | _ -> ()
    | exception e ->
        Alcotest.failf "case seed %d: frontend rejected generated program: %s\n%s"
          case.seed (Printexc.to_string e) case.src
  done

(* ------------------------------------------------------------------ *)
(* Oracle *)

let test_oracle_agreement_smoke () =
  (* A small inline campaign; the 100-program CI campaign runs via the
     dune runtest rule invoking `dcir fuzz`. *)
  for i = 0 to 7 do
    let case = Gen.generate (Rng.derive 42 i) in
    match Oracle.check case with
    | [] -> ()
    | fails ->
        Alcotest.failf "case seed %d: %s\n%s" case.seed
          (String.concat "; " (List.map Oracle.failure_str fails))
          case.src
  done

(* ------------------------------------------------------------------ *)
(* Shrinker *)

let test_shrinker_minimizes () =
  let open Dcir_cfront.C_ast in
  (* Inject an unsupported statement into a generated program: while-loops
     are outside the lowered subset, so the reference frontend rejects the
     whole program. The shrinker must strip everything else away. *)
  let base = Gen.generate 99 in
  let f = List.hd base.prog.funcs in
  let poisoned = SWhile (EBinop (Lt, EInt 0, EInt 1), []) in
  let prog = { funcs = [ { f with body = f.body @ [ poisoned ] } ] } in
  let case =
    { base with Gen.prog; src = Dcir_fuzz.Cprint.program_str prog }
  in
  let fails = Oracle.check case in
  Alcotest.(check bool) "reference rejects the poisoned program" true
    (List.exists (fun (fl : Oracle.failure) -> fl.f_invalid) fails);
  let shrunk, shrunk_fails = Shrink.shrink case fails in
  Alcotest.(check bool) "shrunk case still fails" true (shrunk_fails <> []);
  Alcotest.(check int) "minimized to the injected statement alone" 1
    (List.length (List.hd shrunk.Gen.prog.funcs).body)

(* ------------------------------------------------------------------ *)
(* Checked pass execution: MLIR driver *)

let check_reproducer ~(pass_name : string) (path : string option) : unit =
  match path with
  | None -> Alcotest.fail "no crash reproducer written"
  | Some p ->
      Alcotest.(check bool) "reproducer file exists" true (Sys.file_exists p);
      let contents = read_file p in
      Alcotest.(check bool) "reproducer names the pass pipeline" true
        (Tutil.contains contents
           (Printf.sprintf "pass-pipeline='%s'" pass_name));
      Sys.remove p

let test_checked_mlir_rollback () =
  let src = "double f(double x) {\n  return (x + 1.0);\n}\n" in
  let m = Dcir_cfront.Polygeist.compile src in
  let before = Dcir_mlir.Printer.module_to_string m in
  (* Deliberately broken pass: drops the first op of the entry function,
     leaving a use of an undefined value behind. *)
  let broken =
    Pass.make "break-ir" (fun (m : Ir.modul) ->
        (match (List.hd m.funcs).fbody with
        | Some r -> r.rops <- List.tl r.rops
        | None -> ());
        true)
  in
  let changed, st = Pass.run_to_fixpoint_stats ~checked:true [ broken ] m in
  Alcotest.(check bool) "no net change reported" false changed;
  Alcotest.(check int) "a rolled-back application is not counted" 0
    (List.assoc "break-ir" st.applications);
  Alcotest.(check int) "exactly one incident" 1 (List.length st.incidents);
  let inc = List.hd st.incidents in
  Alcotest.(check string) "incident names the pass" "break-ir" inc.Diag.in_pass;
  Alcotest.(check string) "module rolled back to the pre-pass IR" before
    (Dcir_mlir.Printer.module_to_string m);
  Alcotest.(check int) "restored module verifies" 0
    (List.length
       (List.filter
          (fun (d : Verifier.diagnostic) -> d.severity = `Error)
          (Verifier.verify_module m)));
  check_reproducer ~pass_name:"break-ir" inc.Diag.reproducer

let test_checked_mlir_crash_recovered () =
  (* A pass that raises must also be rolled back, not crash the driver. *)
  let m = Dcir_cfront.Polygeist.compile "double g(double x) {\n  return x;\n}\n" in
  let before = Dcir_mlir.Printer.module_to_string m in
  let crasher = Pass.make "crash-pass" (fun _ -> failwith "boom") in
  let changed, st = Pass.run_to_fixpoint_stats ~checked:true [ crasher ] m in
  Alcotest.(check bool) "no net change reported" false changed;
  Alcotest.(check int) "exactly one incident" 1 (List.length st.incidents);
  let inc = List.hd st.incidents in
  Alcotest.(check bool) "incident records the exception" true
    (Tutil.contains inc.Diag.reason "boom");
  Alcotest.(check string) "module untouched" before
    (Dcir_mlir.Printer.module_to_string m);
  (match inc.Diag.reproducer with Some p -> Sys.remove p | None -> ())

(* ------------------------------------------------------------------ *)
(* Checked pass execution: DaCe driver *)

let test_checked_dace_rollback () =
  let src =
    "void h(double x[8], double y[8]) {\n\
    \  for (int i = 0; i < 8; i++) {\n\
    \    y[i] = (x[i] * 2.0);\n\
    \  }\n\
     }\n"
  in
  let sdfg =
    match
      Pipelines.compile ~optimize_sdfg:false Pipelines.Dace ~src ~entry:"h"
    with
    | Pipelines.CSdfg s -> s
    | Pipelines.CMlir _ -> Alcotest.fail "expected an SDFG"
  in
  let before = Dcir_sdfg.Printer.to_string sdfg in
  (* Deliberately broken pass: drops every container, so all memlets fail
     validation. *)
  let broken =
    ("clear-containers", fun (s : Sdfg.t) -> Hashtbl.reset s.containers; true)
  in
  let acc = Driver.new_accum () in
  let changed = Driver.fixpoint ~accum:acc ~checked:true [ broken ] sdfg in
  Alcotest.(check bool) "no net change reported" false changed;
  Alcotest.(check (option int)) "a rolled-back application is not counted"
    None
    (Hashtbl.find_opt acc.apps "clear-containers");
  Alcotest.(check int) "exactly one incident" 1 (List.length acc.incidents);
  let inc = List.hd acc.incidents in
  Alcotest.(check string) "incident names the pass" "clear-containers"
    inc.Diag.in_pass;
  Alcotest.(check string) "SDFG rolled back to the pre-pass form" before
    (Dcir_sdfg.Printer.to_string sdfg);
  Alcotest.(check int) "restored SDFG validates" 0
    (List.length (Dcir_sdfg.Validate.errors sdfg));
  (* The pass is disabled for the rest of the fixpoint: a second run with
     the shared accumulator records no new incident. *)
  let changed2 = Driver.fixpoint ~accum:acc ~checked:true [ broken ] sdfg in
  Alcotest.(check bool) "disabled pass no longer runs" false changed2;
  Alcotest.(check int) "no further incidents" 1 (List.length acc.incidents);
  check_reproducer ~pass_name:"clear-containers" inc.Diag.reproducer

(* Fig 3 size verification rejects the translated Fig 2 example before
   any pass runs: the malloc'd arrays' sizes are not provable. Checked
   mode must still accept passes that leave those errors as they are,
   and still roll back one that adds an error of its own. *)
let test_checked_dace_preexisting_errors () =
  let w = Dcir_workloads.Case_studies.fig2_example in
  let sdfg =
    match
      Pipelines.compile ~optimize_sdfg:false Pipelines.Dcir ~src:w.src
        ~entry:w.entry
    with
    | Pipelines.CSdfg s -> s
    | Pipelines.CMlir _ -> Alcotest.fail "expected an SDFG"
  in
  let errors () = List.length (Dcir_sdfg.Validate.errors sdfg) in
  let invalid = errors () in
  Alcotest.(check bool) "translated SDFG is already invalid" true (invalid > 0);
  let acc = Driver.new_accum () in
  let touch = ("touch", fun (_ : Sdfg.t) -> true) in
  ignore
    (Driver.fixpoint ~max_rounds:1 ~accum:acc ~checked:true [ touch ] sdfg);
  Alcotest.(check int) "a pass adding no error is not rolled back" 0
    (List.length acc.incidents);
  let before = Dcir_sdfg.Printer.to_string sdfg in
  let bogus =
    ( "bogus-access",
      fun (s : Sdfg.t) ->
        ignore
          (Sdfg.add_node (List.hd (Sdfg.states s)).s_graph
             (Sdfg.Access "__bogus__"));
        true )
  in
  ignore (Driver.fixpoint ~accum:acc ~checked:true [ bogus ] sdfg);
  Alcotest.(check (list string)) "the erring pass is rolled back"
    [ "bogus-access" ]
    (List.map (fun (i : Diag.incident) -> i.in_pass) acc.incidents);
  let inc = List.hd acc.incidents in
  Alcotest.(check bool) "the reason names only the new error" true
    (Tutil.contains inc.reason "__bogus__"
    && not (Tutil.contains inc.reason "cannot prove"));
  Alcotest.(check string) "SDFG rolled back" before
    (Dcir_sdfg.Printer.to_string sdfg);
  Alcotest.(check int) "its pre-existing errors remain" invalid (errors ());
  Option.iter Sys.remove inc.reproducer

(* Checked execution changes nothing when every pass behaves, including
   on the case studies whose translated SDFGs fail size verification. *)
let test_checked_dace_case_studies () =
  let print = function
    | Pipelines.CSdfg s -> Dcir_sdfg.Printer.to_string s
    | Pipelines.CMlir _ -> Alcotest.fail "expected an SDFG"
  in
  List.iter
    (fun (w : Dcir_workloads.Workload.t) ->
      let compile checked =
        print
          (Pipelines.compile ~checked Pipelines.Dcir ~src:w.src ~entry:w.entry)
      in
      Alcotest.(check string) w.name (compile false) (compile true))
    Dcir_workloads.Case_studies.all

let suite =
  ( "fuzz",
    [
      Alcotest.test_case "generator determinism" `Quick
        test_generator_deterministic;
      Alcotest.test_case "generated programs compile" `Quick
        test_generated_programs_compile;
      Alcotest.test_case "oracle agreement smoke" `Quick
        test_oracle_agreement_smoke;
      Alcotest.test_case "shrinker minimizes" `Quick test_shrinker_minimizes;
      Alcotest.test_case "checked MLIR rollback" `Quick
        test_checked_mlir_rollback;
      Alcotest.test_case "checked MLIR crash recovery" `Quick
        test_checked_mlir_crash_recovered;
      Alcotest.test_case "checked DaCe rollback" `Quick
        test_checked_dace_rollback;
      Alcotest.test_case "checked DaCe blames only new errors" `Quick
        test_checked_dace_preexisting_errors;
      Alcotest.test_case "checked DaCe matches unchecked on case studies"
        `Quick test_checked_dace_case_studies;
    ] )
