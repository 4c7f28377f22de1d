(** Benchmark harness: regenerates every table/figure of the paper's
    evaluation (§7, plus the Fig 2 motivating example) on the simulated
    machine, and times the compiler pipeline itself with Bechamel.

    Usage: [bench/main.exe [fig2|fig6|fig7|fig8|fig9|fig10|eliminated|
    ablate|timings|all] [--json FILE]] (default: all). Output is the same
    rows/series the paper reports: per-benchmark runtimes per compiler and
    the headline speedup ratios. The simulator is deterministic, so one
    repetition is exact; the paper's median-of-10 protocol is unnecessary
    (EXPERIMENTS.md).

    [--json FILE] additionally writes everything that ran as a
    machine-readable report (schema [dcir-bench-report/1]: per-workload,
    per-pipeline cycles/metrics/correctness, plus ablations, eliminated
    container counts, and compile timings when those parts ran) — the
    canonical diffable record of the perf trajectory across PRs.

    [--interp tree|compiled] selects the interpreter execution strategy
    (default: compiled). Simulated metrics are bit-identical between
    the two — only harness wall-clock changes — so reports produced under
    either setting are directly comparable; the flag exists to measure
    that overhead (EXPERIMENTS.md "Interpreter performance"). *)

open Dcir_workloads
module Pipelines = Dcir_core.Pipelines
module Driver = Dcir_dace_passes.Driver
module Json = Dcir_obs.Json

let pr fmt = Format.printf fmt
let interp_mode : Pipelines.interp_mode ref = ref `Compiled

(* ------------------------------------------------------------------ *)
(* Machine-readable report accumulation: every figure that runs appends
   rows; [--json] serializes whatever was collected. *)

let report_rows : Json.t list ref = ref []

let add_row ~(fig : string) ~(workload : string) (pipelines : Json.t list) :
    unit =
  report_rows :=
    Json.Obj
      [
        ("figure", Json.Str fig);
        ("workload", Json.Str workload);
        ("pipelines", Json.List pipelines);
      ]
    :: !report_rows

let eliminated_rows : (string * int) list ref = ref []
let ablation_rows : Json.t list ref = ref []
let timing_rows : (string * float) list ref = ref []

let write_report (path : string) : unit =
  let sections =
    [
      ("schema", Json.Str "dcir-bench-report/1");
      ("results", Json.List (List.rev !report_rows));
    ]
    @ (if !ablation_rows = [] then []
       else [ ("ablations", Json.List (List.rev !ablation_rows)) ])
    @ (if !eliminated_rows = [] then []
       else
         [
           ( "eliminated_containers",
             Json.Obj
               (List.rev_map (fun (k, v) -> (k, Json.Int v)) !eliminated_rows)
           );
         ])
    @
    if !timing_rows = [] then []
    else
      [
        ( "compile_timings_ms",
          Json.Obj
            (List.rev_map (fun (k, v) -> (k, Json.Float v)) !timing_rows) );
      ]
  in
  (try
     let oc = open_out path in
     output_string oc (Json.to_string (Json.Obj sections));
     output_char oc '\n';
     close_out oc
   with Sys_error msg ->
     prerr_endline ("bench: cannot write report: " ^ msg);
     exit 1);
  pr "@.report written to %s@." path

(* ------------------------------------------------------------------ *)
(* Helpers *)

let run_workload ?kinds ?cfg ~(fig : string) (w : Workload.t) :
    Pipelines.measurement list =
  let ms =
    Pipelines.compare_pipelines ?kinds ?cfg ~interp_mode:!interp_mode
      ~src:w.src ~entry:w.entry (w.args ())
  in
  add_row ~fig ~workload:w.name (List.map Pipelines.measurement_json ms);
  ms

let cycles_of (ms : Pipelines.measurement list) (p : string) : float =
  match List.find_opt (fun (m : Pipelines.measurement) -> m.pipeline = p) ms with
  | Some m -> m.cycles
  | None -> nan

let check_all_correct (name : string) (ms : Pipelines.measurement list) : unit
    =
  List.iter
    (fun (m : Pipelines.measurement) ->
      if not m.correct then
        pr "  !! %s: %s produced WRONG output@." name m.pipeline)
    ms

let geomean (xs : float list) : float =
  exp
    (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
    /. float_of_int (List.length xs))

(* ------------------------------------------------------------------ *)
(* Fig 2: motivating example *)

let fig2 () =
  pr "@.== Fig 2(b): motivating example — runtime across compilers ==@.";
  let ms = run_workload ~fig:"fig2" Case_studies.fig2_example in
  check_all_correct "fig2" ms;
  pr "  %-8s %14s@." "compiler" "cycles";
  List.iter
    (fun (m : Pipelines.measurement) -> pr "  %-8s %14.0f@." m.pipeline m.cycles)
    ms;
  let d = max (cycles_of ms "dcir") 1.0 in
  let best_other =
    List.fold_left
      (fun acc (m : Pipelines.measurement) ->
        if m.pipeline = "dcir" then acc else min acc m.cycles)
      infinity ms
  in
  pr "  -> DCIR elides all loops and allocations: %.0fx faster than the \
      best baseline@."
    (best_other /. d)

(* ------------------------------------------------------------------ *)
(* Fig 6: Polybench/C *)

let fig6 () =
  pr "@.== Fig 6: Polybench/C — GCC, Clang, MLIR (Polygeist), DaCe, DCIR ==@.";
  pr "  %-14s %12s %12s %12s %12s %12s@." "benchmark" "gcc" "clang" "mlir"
    "dace" "dcir";
  let rows =
    List.map
      (fun (w : Workload.t) ->
        let ms = run_workload ~fig:"fig6" w in
        check_all_correct w.name ms;
        pr "  %-14s %12.0f %12.0f %12.0f %12.0f %12.0f@." w.name
          (cycles_of ms "gcc") (cycles_of ms "clang") (cycles_of ms "mlir")
          (cycles_of ms "dace") (cycles_of ms "dcir");
        ms)
      Polybench.all
  in
  let ratio p =
    geomean (List.map (fun ms -> cycles_of ms p /. cycles_of ms "dcir") rows)
  in
  pr "  ----@.";
  pr "  geomean speedup of DCIR: %.2fx over MLIR, %.2fx over GCC, %.2fx \
      over Clang, %.2fx over DaCe@."
    (ratio "mlir") (ratio "gcc") (ratio "clang") (ratio "dace");
  pr "  (paper: 1.59x over MLIR, 1.03x over GCC, 1.02x over Clang, 0.94x \
      over DaCe)@."

(* ------------------------------------------------------------------ *)
(* Fig 7: syrk — DaCe's indivisible tasklets vs DCIR's raised tasklets *)

let fig7 () =
  pr "@.== Fig 7: syrk — DaCe C frontend vs DCIR ==@.";
  let ms = run_workload ~fig:"fig7" Polybench.syrk in
  check_all_correct "syrk" ms;
  pr "  %-8s %14s@." "compiler" "cycles";
  List.iter
    (fun (m : Pipelines.measurement) -> pr "  %-8s %14.0f@." m.pipeline m.cycles)
    ms;
  pr "  -> DaCe / DCIR = %.2fx: the DaCe frontend's indivisible C tasklets \
      cannot hoist alpha*A[i][k] out of the inner loop@."
    (cycles_of ms "dace" /. cycles_of ms "dcir")

(* ------------------------------------------------------------------ *)
(* Fig 8: Mish activation *)

let fig8 () =
  pr "@.== Fig 8: Mish activation — frameworks and DCIR ==@.";
  let eager = Case_studies.mish_eager and fused = Case_studies.mish_fused in
  let fig8_rows : Json.t list ref = ref [] in
  let run_cfg ?(cfg = Dcir_machine.Cost.default) ~name compiled
      (w : Workload.t) =
    let r =
      Pipelines.run ~cfg ~interp_mode:!interp_mode compiled ~entry:w.entry
        (w.args ())
    in
    (* Fig 8 variants are framework proxies with no shared reference run, so
       correctness is not asserted here (null in the report). *)
    fig8_rows :=
      Json.Obj
        [
          ("name", Json.Str name);
          ("cycles", Json.Float r.metrics.cycles);
          ("loads", Json.Int r.metrics.loads);
          ("stores", Json.Int r.metrics.stores);
          ("heap_allocs", Json.Int r.metrics.heap_allocs);
          ("correct", Json.Null);
        ]
      :: !fig8_rows;
    r.metrics.cycles
  in
  let eager_c =
    (* eager framework: unoptimized op-by-op execution of the eager graph *)
    run_cfg ~name:"pytorch-eager"
      (Pipelines.CMlir (Dcir_cfront.Polygeist.compile eager.src))
      eager
  in
  let jit_c =
    run_cfg ~name:"torch.jit"
      (Pipelines.compile Clang ~src:fused.src ~entry:fused.entry)
      fused
  in
  let torch_mlir_c =
    run_cfg ~name:"torch-mlir"
      (Pipelines.compile Mlir ~src:eager.src ~entry:eager.entry)
      eager
  in
  let dcir_compiled = Pipelines.compile Dcir ~src:eager.src ~entry:eager.entry in
  let dcir_c = run_cfg ~name:"dcir-clang" dcir_compiled eager in
  let icc_cfg = Dcir_machine.Cost.with_vector_math Dcir_machine.Cost.default in
  let dcir_icc_c = run_cfg ~name:"dcir-icc" ~cfg:icc_cfg dcir_compiled eager in
  add_row ~fig:"fig8" ~workload:"mish" (List.rev !fig8_rows);
  pr "  %-22s %14s@." "pipeline" "cycles";
  pr "  %-22s %14.0f@." "pytorch-eager" eager_c;
  pr "  %-22s %14.0f@." "torch.jit" jit_c;
  pr "  %-22s %14.0f@." "torch-mlir" torch_mlir_c;
  pr "  %-22s %14.0f@." "dcir (clang)" dcir_c;
  pr "  %-22s %14.0f@." "dcir (icc, vec math)" dcir_icc_c;
  pr "  -> DCIR %.2fx over torch-mlir; DCIR+ICC %.2fx over torch.jit \
      (paper: 1.12x, 2.33x)@."
    (torch_mlir_c /. dcir_c)
    (jit_c /. dcir_icc_c)

(* ------------------------------------------------------------------ *)
(* Fig 9: MILC *)

let fig9 () =
  pr "@.== Fig 9: MILC multi-mass CG snippet ==@.";
  let ms = run_workload ~fig:"fig9" Case_studies.milc in
  check_all_correct "milc" ms;
  pr "  %-8s %14s %10s@." "compiler" "cycles" "allocs";
  List.iter
    (fun (m : Pipelines.measurement) ->
      pr "  %-8s %14.0f %10d@." m.pipeline m.cycles m.metrics.heap_allocs)
    ms;
  let d = cycles_of ms "dcir" in
  pr "  -> DCIR speedups: %.1fx over MLIR, %.1fx over GCC, %.1fx over \
      Clang, %.2fx over DaCe (paper: 8.4x, 10.4x, 7x, 1.2x)@."
    (cycles_of ms "mlir" /. d)
    (cycles_of ms "gcc" /. d)
    (cycles_of ms "clang" /. d)
    (cycles_of ms "dace" /. d)

(* ------------------------------------------------------------------ *)
(* Fig 10: bandwidth benchmark *)

let fig10 () =
  pr "@.== Fig 10: memory bandwidth benchmark ==@.";
  let ms = run_workload ~fig:"fig10" Case_studies.bandwidth in
  check_all_correct "bandwidth" ms;
  pr "  %-8s %14s %12s %12s@." "compiler" "cycles" "loads" "stores";
  List.iter
    (fun (m : Pipelines.measurement) ->
      pr "  %-8s %14.0f %12d %12d@." m.pipeline m.cycles m.metrics.loads
        m.metrics.stores)
    ms;
  let d = cycles_of ms "dcir" in
  pr "  -> DCIR: %.2fx over MLIR, %.2fx vs GCC, %.2fx vs Clang (paper: \
      1.56x, 0.97x, 0.97x)@."
    (cycles_of ms "mlir" /. d)
    (cycles_of ms "gcc" /. d)
    (cycles_of ms "clang" /. d)

(* ------------------------------------------------------------------ *)
(* §7.3 total: eliminated containers across the three snippets *)

let eliminated () =
  pr "@.== §7.3: containers eliminated across the case-study snippets ==@.";
  let total = ref 0 in
  List.iter
    (fun (w : Workload.t) ->
      Driver.reset_counters ();
      ignore (Pipelines.compile Dcir ~src:w.src ~entry:w.entry);
      let n = Driver.eliminated_containers () in
      total := !total + n;
      eliminated_rows := (w.name, n) :: !eliminated_rows;
      pr "  %-14s %4d arrays/scalars eliminated@." w.name n)
    [ Case_studies.mish_eager; Case_studies.milc; Case_studies.bandwidth ];
  eliminated_rows := ("total", !total) :: !eliminated_rows;
  pr "  total: %d (paper reports 63 for its three snippets)@." !total

(* ------------------------------------------------------------------ *)
(* Ablations: each data-centric pass disabled in turn *)

let ablate () =
  pr "@.== Ablation: DCIR cycles with one data-centric pass disabled ==@.";
  let subjects =
    [ Polybench.gesummv; Polybench.syrk; Case_studies.fig2_example;
      Case_studies.mish_eager; Case_studies.bandwidth ]
  in
  pr "  %-22s" "disabled pass";
  List.iter (fun (w : Workload.t) -> pr " %12s" w.name) subjects;
  pr "@.";
  let row label disable =
    pr "  %-22s" label;
    List.iter
      (fun (w : Workload.t) ->
        match
          let compiled =
            Pipelines.compile ~disable Dcir ~src:w.src ~entry:w.entry
          in
          Pipelines.run ~interp_mode:!interp_mode compiled ~entry:w.entry
            (w.args ())
        with
        | r ->
            ablation_rows :=
              Json.Obj
                [
                  ("disabled", Json.Str label);
                  ("workload", Json.Str w.name);
                  ("cycles", Json.Float r.metrics.cycles);
                ]
              :: !ablation_rows;
            pr " %12.0f" r.metrics.cycles
        | exception _ -> pr " %12s" "(failed)")
      subjects;
    pr "@."
  in
  row "(none)" [];
  List.iter (fun p -> row p [ p ]) Driver.all_pass_names

(* ------------------------------------------------------------------ *)
(* Compile-time measurements — one Bechamel Test.make per figure *)

let bechamel_tests : Bechamel.Test.t list =
  let open Bechamel in
  let t name (w : Workload.t) =
    Test.make ~name
      (Staged.stage (fun () ->
           ignore (Pipelines.compile Dcir ~src:w.Workload.src ~entry:w.Workload.entry)))
  in
  [
    t "fig2/dcir-compile" Case_studies.fig2_example;
    t "fig6/dcir-compile-gemm" Polybench.gemm;
    t "fig7/dcir-compile-syrk" Polybench.syrk;
    t "fig8/dcir-compile-mish" Case_studies.mish_eager;
    t "fig9/dcir-compile-milc" Case_studies.milc;
    t "fig10/dcir-compile-bw" Case_studies.bandwidth;
  ]

let timings () =
  pr "@.== Compilation time per figure (Bechamel, monotonic clock) ==@.";
  let open Bechamel in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:20 ~quota:(Time.second 0.5) ~kde:None ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false
          ~predictors:[| Measure.run |]
      in
      let estimates = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
              timing_rows := (name, est /. 1e6) :: !timing_rows;
              pr "  %-26s %10.1f ms@." name (est /. 1e6)
          | _ -> pr "  %-26s (no estimate)@." name)
        estimates)
    bechamel_tests;
  pr "  (paper: 19-64 s end-to-end per benchmark; median DCIR optimization \
      time 3.46 s on LLVM-scale infrastructure)@."

(* ------------------------------------------------------------------ *)

let () =
  (* Minimal argv parsing: [FIGURE] selects a part, [--json FILE] writes the
     machine-readable report of whatever ran. *)
  let json_path = ref None and which = ref "all" in
  let rec scan = function
    | [] -> ()
    | [ "--json" ] ->
        prerr_endline "bench: --json requires a FILE argument";
        exit 2
    | "--json" :: path :: rest ->
        json_path := Some path;
        scan rest
    | "--interp" :: m :: rest ->
        (match m with
        | "tree" -> interp_mode := `Tree
        | "compiled" -> interp_mode := `Compiled
        | _ ->
            prerr_endline "bench: --interp expects 'tree' or 'compiled'";
            exit 2);
        scan rest
    | [ "--interp" ] ->
        prerr_endline "bench: --interp requires a MODE argument";
        exit 2
    | arg :: rest ->
        which := arg;
        scan rest
  in
  scan (List.tl (Array.to_list Sys.argv));
  let all_parts =
    [
      ("fig2", fig2); ("fig6", fig6); ("fig7", fig7); ("fig8", fig8);
      ("fig9", fig9); ("fig10", fig10); ("eliminated", eliminated);
      ("ablate", ablate); ("timings", timings);
    ]
  in
  (match List.assoc_opt !which all_parts with
  | Some f -> f ()
  | None ->
      if !which <> "all" then pr "unknown figure '%s'; running all@." !which;
      List.iter (fun (_, f) -> f ()) all_parts);
  match !json_path with Some path -> write_report path | None -> ()
