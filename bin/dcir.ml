(** The [dcir] command-line driver.

    {v
    dcir compile FILE.c --entry f [--pipeline dcir] [--emit mlir|sdfg-dialect|sdfg]
    dcir run FILE.c --entry f [--pipeline dcir] [--size N] [--profile]
    dcir bench WORKLOAD [--json FILE]  # one of the paper's workloads, all pipelines
    dcir list                          # available workloads
    v}

    [run] executes the compiled program on the simulated machine with
    synthetic inputs (arrays filled with a deterministic pattern, scalars set
    to [--size]/1.5) and reports metrics.

    Observability flags (see README "Observability"): [--timing] prints the
    per-pass/per-phase wall-time tree, [--trace FILE.json] writes the same
    spans as Chrome trace_event JSON, [--profile] attributes executed
    cycles/loads/stores to SDFG states, tasklets, and MLIR functions,
    [--verbose] routes the per-subsystem [Logs] sources to stderr. *)

open Cmdliner
module Pipelines = Dcir_core.Pipelines
module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* [--events FILE]: [write FILE] the decision-event stream, or exit 1. *)
let write_events (events : string option) (write : string -> unit) : unit =
  match events with
  | Some path -> (
      try
        write path;
        Format.printf "events written to %s@." path
      with Sys_error msg ->
        Format.eprintf "dcir: cannot write events: %s@." msg;
        exit 1)
  | None -> ()

let pipeline_conv =
  Arg.enum
    [ ("gcc", Pipelines.Gcc); ("clang", Pipelines.Clang);
      ("mlir", Pipelines.Mlir); ("dace", Pipelines.Dace);
      ("dcir", Pipelines.Dcir) ]

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"C source file")

let entry_arg =
  Arg.(value & opt (some string) None & info [ "entry" ] ~docv:"NAME"
         ~doc:"Entry function (default: the first function in the file)")

let pipeline_arg =
  Arg.(value & opt pipeline_conv Pipelines.Dcir
       & info [ "pipeline"; "p" ] ~docv:"PIPELINE"
           ~doc:"One of gcc, clang, mlir, dace, dcir")

let emit_arg =
  Arg.(value & opt (enum [ ("mlir", `Mlir); ("sdfg-dialect", `Dialect);
                           ("sdfg", `Sdfg) ]) `Sdfg
       & info [ "emit" ] ~docv:"FORM" ~doc:"IR to print: mlir, sdfg-dialect, sdfg")

(* ------------------------------------------------------------------ *)
(* Observability flags, shared by compile/run/bench *)

let verbose_arg =
  Arg.(value & flag
       & info [ "verbose"; "v" ]
           ~doc:"Route per-subsystem debug logs (pass managers, drivers) to \
                 stderr.")

let timing_arg =
  Arg.(value & flag
       & info [ "timing" ]
           ~doc:"Print a per-phase/per-pass wall-time tree (the -mlir-timing \
                 role).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write the telemetry spans as Chrome trace_event JSON \
                 (open in about:tracing or ui.perfetto.dev).")

let profile_arg =
  Arg.(value & flag
       & info [ "profile" ]
           ~doc:"Attribute executed cycles/loads/stores to SDFG states, \
                 tasklets, and MLIR functions (hot-spot table).")

let parallel_arg =
  Arg.(value & flag
       & info [ "parallel" ]
           ~doc:"Run the loop→map auto-parallelizer on SDFG pipelines \
                 (dace/dcir) and print its per-loop conflict report; maps \
                 that earn a parallelization certificate fan out across \
                 $(b,--jobs) worker domains.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for certified parallel maps. Outputs and \
                 machine metrics are bit-identical for every value.")

let interp_conv : Pipelines.interp_mode Arg.conv =
  Arg.enum [ ("tree", `Tree); ("compiled", `Compiled) ]

let interp_arg =
  Arg.(value & opt interp_conv `Compiled
       & info [ "interp" ] ~docv:"TIER"
           ~doc:"Execution tier: $(b,tree) (the reference walkers) or \
                 $(b,compiled) (closure-compiled MLIR; SDFGs lowered to \
                 the flat bytecode VM). Outputs, traps and machine \
                 metrics are bit-identical across tiers.")

(* Output streams, shared by explain/fuzz ([--events]) and fuzz/serve
   ([--journal]); each subcommand checks the modes it writes them in. *)

let events_arg =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Write the decision-event stream (schema dcir-events/1) as \
                 JSON, byte-identical for the same input and seed; \
                 $(b,fuzz) writes it with $(b,--chaos) or $(b,--coverage).")

let journal_arg =
  Arg.(value & opt (some string) None
       & info [ "journal" ] ~docv:"FILE"
           ~doc:"Write the serve response journal (schema \
                 dcir-serve-journal/3), byte-identical for the same \
                 requests, seed and configuration; $(b,serve) writes it to \
                 stdout without this flag, $(b,fuzz) only with \
                 $(b,--serve).")

(* ------------------------------------------------------------------ *)
(* Resource-budget flags, shared by run/bench/fuzz (see README
   "Resilience"). Cmdliner renders the defaults in --help. *)

let max_steps_arg =
  Arg.(value & opt int Budget.default.Budget.max_steps
       & info [ "max-steps" ] ~docv:"N"
           ~doc:"Interpreter step budget per execution. Exhaustion aborts \
                 with a one-line E-BUDGET-STEPS diagnostic instead of \
                 hanging.")

let max_fuel_arg =
  Arg.(value & opt int Budget.default.Budget.max_fuel
       & info [ "max-fuel" ] ~docv:"N"
           ~doc:"Optimization fuel budget per compile: each pass \
                 application burns one unit. Exhaustion aborts with \
                 E-BUDGET-FUEL (or degrades, under $(b,--degrade)).")

let degrade_arg =
  Arg.(value & flag
       & info [ "degrade" ]
           ~doc:"Compile through the graceful-degradation ladder: when a \
                 tier fails (budget exhaustion, verification failure, pass \
                 crash) retry at the next lower tier (O2, O1, O0, \
                 unoptimized) and report what was dropped, instead of \
                 failing the build.")

let budget_limits ~max_steps ~max_fuel =
  { Budget.default with Budget.max_steps; Budget.max_fuel }

let print_resilience_report (r : Pipelines.resilience_report) =
  List.iter
    (fun line -> Format.printf "%s@." line)
    (Pipelines.resilience_report_lines r)

let print_autopar_report ppf =
  match !Pipelines.last_autopar_report with
  | Some report ->
      if report = [] then
        Format.fprintf ppf "@.-- autopar --@.no loops detected@."
      else
        Format.fprintf ppf "@.-- autopar --@.%a@."
          Dcir_autopar.Loop_to_map.pp_report report
  | None -> ()

let setup_obs ~verbose ~timing ~trace =
  if verbose then begin
    Fmt_tty.setup_std_outputs ();
    Logs.set_reporter (Logs_fmt.reporter ());
    Logs.set_level (Some Logs.Debug)
  end;
  if timing || trace <> None then begin
    Obs.enable ();
    Obs.reset ()
  end

let report_obs ~timing ~trace =
  if timing then begin
    Format.printf "@.-- timing --@.";
    Obs.pp_report Format.std_formatter ()
  end;
  match trace with
  | Some path -> (
      try
        Obs.write_trace path;
        Format.printf "trace written to %s@." path
      with Sys_error msg ->
        Format.eprintf "dcir: cannot write trace: %s@." msg;
        exit 1)
  | None -> ()

(* ------------------------------------------------------------------ *)

let compile_cmd =
  let doc = "Compile a C file and print the requested IR." in
  let no_opt_arg =
    Arg.(value & flag
         & info [ "no-opt" ]
             ~doc:"Skip the data-centric optimization pipeline (print the \
                   SDFG as translated).")
  in
  let run file entry pipeline emit no_opt parallel verbose timing trace =
    setup_obs ~verbose ~timing ~trace;
    let src = read_file file in
    let entry = Dcir_serve.Synth.resolve_entry src entry in
    (* The front of [Pipelines.compile] for an SDFG pipeline, up to the
       verified MLIR its bridge starts from. *)
    let verified_mlir () =
      let m = Pipelines.frontend_phase src in
      (match Pipelines.control_passes pipeline with
      | [] -> ()
      | passes -> Pipelines.control_phase ~passes m);
      Pipelines.verify_phase m;
      m
    in
    let print_mlir m = print_string (Dcir_mlir.Printer.module_to_string m) in
    (match (pipeline, emit) with
    | (Pipelines.Dcir | Dace), `Mlir -> print_mlir (verified_mlir ())
    | Pipelines.Dcir, `Dialect ->
        let m = verified_mlir () in
        print_mlir
          (Pipelines.phase_span "convert" (fun () ->
               Dcir_core.Converter.convert_module m))
    | _ -> (
        match
          Pipelines.compile ~optimize_sdfg:(not no_opt) ~autopar:parallel
            pipeline ~src ~entry
        with
        | Pipelines.CSdfg sdfg ->
            print_string (Dcir_sdfg.Printer.to_string sdfg);
            (* The conflict report goes to stderr so stdout stays pure IR. *)
            if parallel then print_autopar_report Format.err_formatter
        | Pipelines.CMlir m -> print_mlir m));
    report_obs ~timing ~trace;
    `Ok ()
  in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      ret
        (const run $ file_arg $ entry_arg $ pipeline_arg $ emit_arg
       $ no_opt_arg $ parallel_arg $ verbose_arg $ timing_arg $ trace_arg))

let size_arg =
  Arg.(value & opt float 16.0
       & info [ "size" ] ~docv:"N" ~doc:"Value for scalar int arguments")

let run_cmd =
  let doc = "Compile and execute on the simulated machine; print metrics." in
  let run file entry pipeline size parallel jobs interp max_steps max_fuel
      degrade verbose timing trace profile =
    setup_obs ~verbose ~timing ~trace;
    let src = read_file file in
    let entry = Dcir_serve.Synth.resolve_entry src entry in
    let limits = budget_limits ~max_steps ~max_fuel in
    let compiled =
      if degrade then begin
        let c, report =
          Pipelines.compile_resilient ~limits ~autopar:parallel pipeline ~src
            ~entry
        in
        print_resilience_report report;
        c
      end
      else
        Pipelines.compile ~autopar:parallel ~budget:(Budget.create ~limits ())
          pipeline ~src ~entry
    in
    let prof = if profile then Some (Obs.Profile.create ()) else None in
    let r =
      Obs.with_span ~cat:"run"
        ("run:" ^ Pipelines.kind_name pipeline)
        (fun () ->
          Pipelines.run ~budget:(Budget.create ~limits ()) ?profile:prof ~jobs
            ~interp_mode:interp compiled ~entry
            (Dcir_serve.Synth.args src entry ~size))
    in
    if parallel then print_autopar_report Format.std_formatter;
    (match r.return_value with
    | Some v ->
        Format.printf "return value: %s@." (Dcir_machine.Value.to_string v)
    | None -> ());
    Format.printf "%a@." Dcir_machine.Metrics.pp r.metrics;
    (match prof with
    | Some p ->
        Format.printf "@.-- profile --@.%a" Obs.Profile.pp p;
        let attributed = Obs.Profile.total_cycles p ~kind:"state" in
        if attributed > 0.0 then
          Format.printf
            "state attribution covers %.0f of %.0f total cycles (%.1f%%)@."
            attributed r.metrics.cycles
            (100.0 *. attributed /. r.metrics.cycles)
    | None -> ());
    report_obs ~timing ~trace;
    `Ok ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      ret
        (const run $ file_arg $ entry_arg $ pipeline_arg $ size_arg
       $ parallel_arg $ jobs_arg $ interp_arg $ max_steps_arg $ max_fuel_arg
       $ degrade_arg $ verbose_arg $ timing_arg $ trace_arg $ profile_arg))

let explain_cmd =
  let doc =
    "Compile (and run) a program, narrating every optimization decision: \
     passes admitted/skipped, loops certified or refused (with the conflict \
     witness), breaker and degradation-ladder activity, and budget spend. \
     Each line carries its stable event code."
  in
  let no_run_arg =
    Arg.(value & flag
         & info [ "no-run" ]
             ~doc:"Explain the compile only; skip executing the artifact.")
  in
  let unchecked_arg =
    Arg.(value & flag
         & info [ "unchecked" ]
             ~doc:"Run passes unchecked, like plain $(b,compile)/$(b,run). \
                   By default explain uses checked pass execution, which \
                   also narrates rollbacks the strict validator forces.")
  in
  let run file entry pipeline size jobs interp max_steps max_fuel events
      no_run unchecked verbose timing trace =
    setup_obs ~verbose ~timing ~trace;
    let src = read_file file in
    let entry = Dcir_serve.Synth.resolve_entry src entry in
    let limits = budget_limits ~max_steps ~max_fuel in
    let x =
      Dcir_core.Explain.explain ~limits ~checked:(not unchecked)
        ~run:(not no_run) ~jobs ~interp pipeline ~src ~entry
        ~args:(fun () -> Dcir_serve.Synth.args src entry ~size)
        ()
    in
    Format.printf "%a" Dcir_core.Explain.pp x;
    write_events events (Dcir_core.Explain.write_events x);
    report_obs ~timing ~trace;
    `Ok ()
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      ret
        (const run $ file_arg $ entry_arg $ pipeline_arg $ size_arg $ jobs_arg
       $ interp_arg $ max_steps_arg $ max_fuel_arg $ events_arg $ no_run_arg
       $ unchecked_arg $ verbose_arg $ timing_arg $ trace_arg))

let workloads () = Dcir_workloads.Polybench.all @ Dcir_workloads.Case_studies.all

let bench_cmd =
  let doc = "Run one of the paper's workloads under all five pipelines." in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"WORKLOAD")
  in
  let json_arg =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the per-pipeline results as a machine-readable JSON \
                   report.")
  in
  let run name json parallel jobs interp max_steps max_fuel degrade verbose
      timing trace profile =
    match
      List.find_opt
        (fun (w : Dcir_workloads.Workload.t) -> w.name = name)
        (workloads ())
    with
    | None -> `Error (false, "unknown workload " ^ name ^ "; see `dcir list`")
    | Some w ->
        setup_obs ~verbose ~timing ~trace;
        Format.printf "%s: %s@.@." w.name w.description;
        Format.printf "  %-8s %14s %10s %10s %8s  %s%s@." "pipeline" "cycles"
          "loads" "stores" "allocs" "correct"
          (if degrade then "  tier" else "");
        let ms =
          Pipelines.compare_pipelines ~with_profile:profile
            ~interp_mode:interp
            ~limits:(budget_limits ~max_steps ~max_fuel)
            ~degrade ~src:w.src ~entry:w.entry (w.args ())
        in
        List.iter
          (fun (m : Pipelines.measurement) ->
            Format.printf "  %-8s %14.0f %10d %10d %8d  %b%s@." m.pipeline
              m.cycles m.metrics.loads m.metrics.stores m.metrics.heap_allocs
              m.correct
              (match m.landed_tier with
              | Some t -> "     " ^ t
              | None -> ""))
          ms;
        if parallel then begin
          let compiled =
            Pipelines.compile ~autopar:true Pipelines.Dcir ~src:w.src
              ~entry:w.entry
          in
          let serial =
            Pipelines.run compiled ~entry:w.entry (w.args ())
          in
          let par =
            Pipelines.run ~jobs compiled ~entry:w.entry (w.args ())
          in
          let identical =
            Pipelines.bitwise_divergence ~what:"serial and parallel runs"
              serial par
            = None
          in
          let correct =
            let reference =
              Pipelines.run
                (Pipelines.CMlir (Dcir_cfront.Polygeist.compile w.src))
                ~entry:w.entry (w.args ())
            in
            Pipelines.divergence reference serial = None
          in
          Format.printf
            "  %-8s %14.0f %10d %10d %8d  %b (serial)@." "dcir-par"
            serial.metrics.cycles serial.metrics.loads serial.metrics.stores
            serial.metrics.heap_allocs correct;
          Format.printf
            "  %-8s %14.0f %10d %10d %8d  jobs=%d, %s@." ""
            par.metrics.cycles par.metrics.loads par.metrics.stores
            par.metrics.heap_allocs jobs
            (if identical then "bit-identical to serial"
             else "DIVERGED from serial");
          print_autopar_report Format.std_formatter
        end;
        if profile then
          List.iter
            (fun (m : Pipelines.measurement) ->
              match m.profile with
              | Some p ->
                  Format.printf "@.-- profile: %s --@.%a" m.pipeline
                    Obs.Profile.pp p
              | None -> ())
            ms;
        (match json with
        | Some path ->
            let report =
              Json.Obj
                [
                  ("schema", Json.Str "dcir-bench/3");
                  ("workload", Json.Str w.name);
                  ("description", Json.Str w.description);
                  ("entry", Json.Str w.entry);
                  ( "pipelines",
                    Json.List (List.map Pipelines.measurement_json ms) );
                ]
            in
            (try
               let oc = open_out path in
               output_string oc (Json.to_string report);
               output_char oc '\n';
               close_out oc
             with Sys_error msg ->
               Format.eprintf "dcir: cannot write report: %s@." msg;
               exit 1);
            Format.printf "@.report written to %s@." path
        | None -> ());
        report_obs ~timing ~trace;
        `Ok ()
  in
  Cmd.v (Cmd.info "bench" ~doc)
    Term.(
      ret
        (const run $ name_arg $ json_arg $ parallel_arg $ jobs_arg
       $ interp_arg $ max_steps_arg $ max_fuel_arg $ degrade_arg $ verbose_arg
       $ timing_arg $ trace_arg $ profile_arg))

let fuzz_cmd =
  let doc =
    "Differential fuzzing: random well-typed programs through all five \
     pipelines, flagging any divergence from the unoptimized reference."
  in
  let count_arg =
    Arg.(value & opt int 100
         & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of programs to generate")
  in
  let seed_arg =
    Arg.(value & opt int 42
         & info [ "seed"; "s" ] ~docv:"SEED"
             ~doc:"Campaign seed; case $(i,i) of a seed is the same program \
                   forever")
  in
  let checked_arg =
    Arg.(value & flag
         & info [ "checked" ]
             ~doc:"Run every optimization pass under snapshot / re-verify / \
                   rollback (crash reproducers on pass failure)")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Directory for .c reproducers of failing cases (default: \
                   the system temp directory)")
  in
  let no_shrink_arg =
    Arg.(value & flag
         & info [ "no-shrink" ]
             ~doc:"Report failures as generated, without delta-debugging \
                   minimization")
  in
  let traps_arg =
    Arg.(value & flag
         & info [ "traps" ]
             ~doc:"Trap grammar: also generate zero-trip loops (the \
                   symbolic bound n bound to 0 at run time, degenerate \
                   constant ranges) and integer divisions whose divisor \
                   can be zero. The oracle then checks trap parity: every \
                   pipeline must trap exactly when the unoptimized \
                   reference traps, with the same kind — an optimized \
                   build that traps where the reference ran clean has \
                   speculated a trapping op onto a new path.")
  in
  let chaos_arg =
    Arg.(value & flag
         & info [ "chaos" ]
             ~doc:"Chaos mode: arm a seeded fault plan (pass crashes, \
                   corrupt rewrites, fuel starvation, allocation failures) \
                   per case and assert the resilience machinery answers \
                   every injected fault with either a correct (possibly \
                   degraded) artifact or a structured diagnostic — never a \
                   hang, an uncaught exception, or a wrong answer.")
  in
  let serve_arg =
    Arg.(value & flag
         & info [ "serve" ]
             ~doc:"Serve chaos mode: drive a seeded multi-tenant request \
                   batch (generated programs, poison requests, tight \
                   deadlines) through the serving engine with fault plans \
                   armed per (request, attempt), and assert zero wrong \
                   answers, zero escaped exceptions, and tenant isolation \
                   (each tenant's responses byte-identical to a solo run).")
  in
  let tenants_arg =
    Arg.(value & opt int 3
         & info [ "tenants" ] ~docv:"K"
             ~doc:"With $(b,--serve): number of tenants in the batch")
  in
  let workers_arg =
    Arg.(value & opt int 4
         & info [ "workers" ] ~docv:"N"
             ~doc:"With $(b,--serve): worker domains for the pooled run. \
                   The campaign replays the batch at 1 worker and at N \
                   workers and fails unless the journals agree \
                   byte-for-byte.")
  in
  let coverage_arg =
    Arg.(value & flag
         & info [ "coverage" ]
             ~doc:"Coverage dashboard: run a seeded, chaos-armed, \
                   compile-only campaign and aggregate per-construct \
                   autopar / rollback / breaker / degradation rates from \
                   the decision-event stream.")
  in
  let write_reproducer dir (fc : Dcir_fuzz.Harness.failed_case) =
    let path =
      Filename.concat dir (Printf.sprintf "fuzz-seed-%d.c" fc.case.seed)
    in
    try
      let oc = open_out path in
      output_string oc "// dcir fuzz reproducer\n";
      Printf.fprintf oc "// case seed: %d\n" fc.case.seed;
      List.iter
        (fun f ->
          Printf.fprintf oc "// %s\n" (Dcir_fuzz.Oracle.failure_str f))
        fc.shrunk_failures;
      output_string oc fc.shrunk.src;
      close_out oc;
      Some path
    with Sys_error _ -> None
  in
  let run_chaos ~count ~seed ~events =
    let module C = Dcir_fuzz.Chaos_campaign in
    let report = C.run ~count ~seed () in
    List.iter
      (fun (cr : C.case_result) ->
        if not (C.acceptable cr.cr_outcome) then
          Format.printf "FAIL (case %d, seed %d): %s: %s@." cr.cr_index
            cr.cr_seed
            (C.outcome_name cr.cr_outcome)
            (match cr.cr_outcome with
            | C.Wrong msg | C.Escaped msg -> msg
            | _ -> ""))
      report.C.ch_cases;
    write_events events (C.write_events report);
    let tally name p =
      match
        List.length (List.filter (fun c -> p c.C.cr_outcome) report.C.ch_cases)
      with
      | 0 -> None
      | n -> Some (Printf.sprintf "%d %s" n name)
    in
    let counts =
      List.filter_map Fun.id
        [
          tally "correct" (fun o -> o = C.Correct);
          tally "degraded-correct" (fun o -> o = C.Degraded_correct);
          tally "diagnosed" (function C.Diagnosed _ -> true | _ -> false);
          tally "wrong" (function C.Wrong _ -> true | _ -> false);
          tally "escaped" (function C.Escaped _ -> true | _ -> false);
        ]
    in
    Format.printf "chaos: %d cases, campaign seed %d: %s (%s)@."
      report.C.ch_count report.C.ch_seed
      (if C.ok report then "every fault answered"
       else "ORACLE VIOLATIONS")
      (String.concat ", " counts);
    C.ok report
  in
  let run_serve ~count ~seed ~tenants ~workers ~journal =
    let module S = Dcir_fuzz.Serve_campaign in
    let report = S.run ~tenants ~workers ~count ~seed () in
    (match (journal, report.S.sv_engine) with
    | Some path, Some er -> (
        try
          Dcir_serve.Engine.write er path;
          Format.printf "journal written to %s@." path
        with Sys_error msg ->
          Format.eprintf "dcir: cannot write journal: %s@." msg;
          exit 1)
    | _ -> ());
    List.iter (Format.printf "%s@.") (S.summary_lines report);
    S.ok report
  in
  let run_coverage ~count ~seed ~events =
    let module Cov = Dcir_fuzz.Coverage in
    let r = Cov.run ~count ~seed () in
    Format.printf "%a" Cov.pp r;
    write_events events (Cov.write_events r);
    true
  in
  let run count seed checked parallel jobs max_steps max_fuel chaos serve
      tenants workers journal coverage events out no_shrink traps verbose
      timing trace =
    setup_obs ~verbose ~timing ~trace;
    let harness () =
      let out_dir =
        match out with Some d -> d | None -> Filename.get_temp_dir_name ()
      in
      let jobs = if parallel && jobs <= 1 then 3 else jobs in
      let cfg =
        if traps then Dcir_fuzz.Gen.trap_cfg else Dcir_fuzz.Gen.default_cfg
      in
      let report =
        Dcir_fuzz.Harness.run ~cfg ~checked ~parallel ~jobs
          ~shrink:(not no_shrink)
          ~limits:(budget_limits ~max_steps ~max_fuel)
          ~reproducer_dir:out_dir ~count ~seed ()
      in
      List.iter
        (fun (fc : Dcir_fuzz.Harness.failed_case) ->
          Format.printf "FAIL (case seed %d):@." fc.case.seed;
          List.iter
            (fun f ->
              Format.printf "  %s@." (Dcir_fuzz.Oracle.failure_str f))
            fc.failures;
          (match write_reproducer out_dir fc with
          | Some path -> Format.printf "  reproducer: %s@." path
          | None ->
              Format.eprintf "dcir: cannot write reproducer under %s@."
                out_dir);
          if fc.shrunk.src <> fc.case.src then
            Format.printf "  shrunk to:@.%s" fc.shrunk.src)
        report.failed;
      Format.printf "fuzz: %d programs, campaign seed %d: %s@." report.count
        report.seed
        (if Dcir_fuzz.Harness.ok report then "all pipelines agree"
         else Printf.sprintf "%d failing case(s)" (List.length report.failed));
      Dcir_fuzz.Harness.ok report
    in
    (* An output flag outside its mode would write nothing. *)
    if journal <> None && not serve then
      `Error (true, "--journal writes the serve journal; it needs --serve")
    else if events <> None && (serve || not (chaos || coverage)) then
      `Error (true, "--events needs --chaos or --coverage")
    else
      let ok =
        if serve then run_serve ~count ~seed ~tenants ~workers ~journal
        else if coverage then run_coverage ~count ~seed ~events
        else if chaos then run_chaos ~count ~seed ~events
        else harness ()
      in
      report_obs ~timing ~trace;
      if ok then `Ok () else exit 1
  in
  Cmd.v (Cmd.info "fuzz" ~doc)
    Term.(
      ret
        (const run $ count_arg $ seed_arg $ checked_arg $ parallel_arg
       $ jobs_arg $ max_steps_arg $ max_fuel_arg $ chaos_arg $ serve_arg
       $ tenants_arg $ workers_arg $ journal_arg $ coverage_arg $ events_arg
       $ out_arg $ no_shrink_arg $ traps_arg $ verbose_arg $ timing_arg
       $ trace_arg))

let serve_cmd =
  let doc =
    "Process a batch of compile/run requests through the fault-tolerant \
     serving engine and emit the response journal."
  in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Reads a request batch (JSON, schema dcir-serve-requests/1) from \
         $(i,FILE) (or stdin when $(i,FILE) is $(b,-)) and processes every \
         request through admission control, per-tenant quotas and circuit \
         breakers, budget-step deadlines and retry-with-degradation. The \
         response journal (schema dcir-serve-journal/3) is deterministic: \
         the same request file, seed and configuration produce \
         byte-identical output.";
    ]
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:"Request batch (JSON); $(b,-) reads standard input")
  in
  let seed_arg =
    Arg.(value & opt int 0
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"Seed recorded in the journal header")
  in
  let queue_arg =
    Arg.(value & opt int Dcir_serve.Engine.default_config.cfg_queue
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission queue capacity; overload sheds the \
                   lowest-priority, oldest request")
  in
  let tenant_steps_arg =
    Arg.(value & opt int Budget.default.Budget.max_steps
         & info [ "tenant-steps" ] ~docv:"N"
             ~doc:"Per-tenant interpreter-step quota across all requests")
  in
  let tenant_fuel_arg =
    Arg.(value & opt int Budget.default.Budget.max_fuel
         & info [ "tenant-fuel" ] ~docv:"N"
             ~doc:"Per-tenant optimization-fuel quota across all requests")
  in
  let trip_after_arg =
    Arg.(value & opt int Breaker.default_config.Breaker.trip_after
         & info [ "trip-after" ] ~docv:"N"
             ~doc:"Tenant breaker: consecutive terminal failures before \
                   opening")
  in
  let cooldown_arg =
    Arg.(value & opt int Breaker.default_config.Breaker.cooldown_rounds
         & info [ "cooldown" ] ~docv:"N"
             ~doc:"Tenant breaker: rounds spent open before probation")
  in
  let probation_arg =
    Arg.(value & opt int Breaker.default_config.Breaker.probation_successes
         & info [ "probation" ] ~docv:"N"
             ~doc:"Tenant breaker: clean requests before re-closing")
  in
  let retries_arg =
    Arg.(value & opt int Dcir_serve.Engine.default_config.cfg_retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Default retry bound per request (each retry re-queues \
                   with backoff at the next lower tier)")
  in
  let deadline_arg =
    Arg.(value & opt (some int) None
         & info [ "deadline" ] ~docv:"N"
             ~doc:"Default per-request deadline in budget steps, measured \
                   against the tenant's own spend")
  in
  let workers_arg =
    Arg.(value & opt int 0
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker domains processing requests in parallel. The \
                   journal is byte-identical for every worker count. \
                   $(b,0) (the default) picks \
                   min(recommended domain count, batch size), clamped to \
                   at least 1")
  in
  let watchdog_arg =
    Arg.(value & opt (some int) None
         & info [ "watchdog" ] ~docv:"N"
             ~doc:"Deterministic watchdog: stop any single attempt after \
                   N budget steps and journal it as SRV-WORKER-WATCHDOG")
  in
  let run file journal seed queue tenant_steps tenant_fuel
      trip_after cooldown probation retries deadline workers watchdog interp =
    let text =
      if file = "-" then In_channel.input_all stdin else read_file file
    in
    match Dcir_serve.Request.parse text with
    | Error msg ->
        Format.eprintf "dcir: %s@." msg;
        exit 1
    | Ok requests ->
        let breaker =
          try
            Breaker.make_config ~trip_after ~cooldown_rounds:cooldown
              ~probation_successes:probation ()
          with Invalid_argument msg ->
            Format.eprintf "dcir: %s@." msg;
            exit 1
        in
        let config =
          {
            Dcir_serve.Engine.cfg_seed = seed;
            cfg_queue = queue;
            cfg_limits =
              {
                Budget.default with
                Budget.max_steps = tenant_steps;
                max_fuel = tenant_fuel;
              };
            cfg_breaker = breaker;
            cfg_retries = retries;
            cfg_deadline = deadline;
            cfg_chaos = None;
            cfg_interp = interp;
            cfg_workers =
              (if workers > 0 then workers
               else
                 max 1
                   (min
                      (Domain.recommended_domain_count ())
                      (List.length requests)));
            cfg_watchdog = watchdog;
          }
        in
        let report = Dcir_serve.Engine.run ~config requests in
        (match journal with
        | Some path -> (
            try Dcir_serve.Engine.write report path
            with Sys_error msg ->
              Format.eprintf "dcir: cannot write journal: %s@." msg;
              exit 1)
        | None ->
            print_string
              (Dcir_obs.Json.to_string (Dcir_serve.Engine.to_json report));
            print_newline ());
        `Ok ()
  in
  Cmd.v (Cmd.info "serve" ~doc ~man)
    Term.(
      ret
        (const run $ file_arg $ journal_arg $ seed_arg $ queue_arg
       $ tenant_steps_arg $ tenant_fuel_arg $ trip_after_arg $ cooldown_arg
       $ probation_arg $ retries_arg $ deadline_arg $ workers_arg
       $ watchdog_arg $ interp_arg))

let list_cmd =
  let doc = "List the available workloads." in
  let run () =
    List.iter
      (fun (w : Dcir_workloads.Workload.t) ->
        Format.printf "  %-16s %s@." w.name w.description)
      (workloads ());
    `Ok ()
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(ret (const run $ const ()))

let () =
  let doc = "DCIR: bridging control-centric and data-centric optimization" in
  let info = Cmd.info "dcir" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        compile_cmd; run_cmd; explain_cmd; bench_cmd; fuzz_cmd; serve_cmd;
        list_cmd;
      ]
  in
  (* Compile/verify/validate/run failures become a one-line diagnostic and
     exit code 1 — never an uncaught-exception backtrace. *)
  let code =
    (* ~catch:false so failures reach our handler instead of cmdliner's
       generic "internal error" report (exit 125). *)
    try Cmd.eval ~catch:false group with
    | Dcir_support.Diagnostics.Error d ->
        Format.eprintf "dcir: %s@." (Dcir_support.Diagnostics.to_string d);
        1
    | Dcir_sdfg.Interp.Trap msg | Dcir_mlir.Interp.Trap msg ->
        Format.eprintf "dcir: runtime trap: %s@."
          (Dcir_support.Diagnostics.one_line msg);
        1
    | Budget.Exhausted (k, limit) ->
        (* One line naming the exceeded budget and the flag that raises
           it — exhaustion is an answer, not a crash. *)
        Format.eprintf "dcir: %s@." (Budget.message k limit);
        1
    | Dcir_machine.Machine.Fault msg ->
        Format.eprintf "dcir: machine fault: %s@."
          (Dcir_support.Diagnostics.one_line msg);
        1
    | Failure msg ->
        Format.eprintf "dcir: %s@." (Dcir_support.Diagnostics.one_line msg);
        1
  in
  exit code
