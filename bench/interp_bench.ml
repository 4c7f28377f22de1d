(** Interpreter micro-benchmark: the two execution tiers (tree walker,
    compiled), plus serial vs multi-domain parallel maps.

    Part one runs representative workloads through both interpreter
    modes ([Pipelines.run ~interp_mode]) on the same compiled artifact,
    asserting first that outputs, return values and {e every} machine
    metric are bit-identical across tiers, then timing repeated runs of
    each. [compiled] means the closure-compiled interpreter for MLIR
    products and the bytecode VM for SDFG products; it only removes
    host-side interpretation overhead (tree dispatch, per-tasklet
    environments, index lists). Any metric divergence is a bug, and any
    slowdown defeats its purpose — both are hard failures here and in
    [validate_report]. [--sweep] widens the subject list to the full
    Polybench suite through the dcir and gcc pipelines, so both compiled
    tiers are covered.

    Part two compiles kernels with [~autopar:true] (loop→map conversion)
    and runs the result serially and with [--jobs N] worker domains. The
    parallel executor's contract is determinism, not machine-dependent
    speed: outputs, return value and every machine metric must be
    bit-identical to the serial run. Identity is a hard failure; wall-clock
    times are reported but {e not} gated — the host may have a single core,
    where domain fan-out can only break even at best.

    Usage: [interp_bench.exe [--reps N] [--jobs N] [--json FILE] [--sweep]].
    The JSON report uses schema [dcir-interp-bench/4]:

    {v
    { "schema": "dcir-interp-bench/4",
      "benchmarks": [ { "name", "pipeline", "reps",
                        "tree_wall_s", "compiled_wall_s",
                        "speedup", "identical" } ],
      "parallel":   [ { "name", "pipeline", "jobs", "reps",
                        "serial_wall_s", "parallel_wall_s",
                        "speedup", "identical" } ] }
    v}

    ["speedup"] is tree/compiled (the compiled tier's win over walking). *)

open Dcir_workloads
module Pipelines = Dcir_core.Pipelines
module Json = Dcir_obs.Json

let pr fmt = Format.printf fmt

type row = {
  name : string;
  pipeline : string;
  reps : int;
  tree_s : float;
  compiled_s : float;
  identical : bool;
}

let speedup_of (baseline : float) (contender : float) : float =
  baseline /. Float.max 1e-9 contender

let speedup (r : row) : float = speedup_of r.tree_s r.compiled_s

let row_json (r : row) : Json.t =
  Json.Obj
    [
      ("name", Json.Str r.name);
      ("pipeline", Json.Str r.pipeline);
      ("reps", Json.Int r.reps);
      ("tree_wall_s", Json.Float r.tree_s);
      ("compiled_wall_s", Json.Float r.compiled_s);
      ("speedup", Json.Float (speedup r));
      ("identical", Json.Bool r.identical);
    ]

type par_row = {
  p_name : string;
  p_pipeline : string;
  p_jobs : int;
  p_reps : int;
  p_serial_s : float;
  p_parallel_s : float;
  p_identical : bool;
}

let par_row_json (r : par_row) : Json.t =
  Json.Obj
    [
      ("name", Json.Str r.p_name);
      ("pipeline", Json.Str r.p_pipeline);
      ("jobs", Json.Int r.p_jobs);
      ("reps", Json.Int r.p_reps);
      ("serial_wall_s", Json.Float r.p_serial_s);
      ("parallel_wall_s", Json.Float r.p_parallel_s);
      ("speedup", Json.Float (speedup_of r.p_serial_s r.p_parallel_s));
      ("identical", Json.Bool r.p_identical);
    ]

let time_runs (mode : Pipelines.interp_mode) (reps : int)
    (compiled : Pipelines.compiled) ~(entry : string)
    (args : Pipelines.arg list) : float =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (Pipelines.run ~interp_mode:mode compiled ~entry args)
  done;
  Unix.gettimeofday () -. t0

let bench_one ~(reps : int) (kind : Pipelines.kind) (w : Workload.t) : row =
  let compiled = Pipelines.compile kind ~src:w.src ~entry:w.entry in
  let args = w.args () in
  (* Identity check first; it also warms the artifact caches so the
     timed runs measure steady-state execution, not compilation. *)
  let rt = Pipelines.run ~interp_mode:`Tree compiled ~entry:w.entry args in
  let rc = Pipelines.run ~interp_mode:`Compiled compiled ~entry:w.entry args in
  let identical =
    Pipelines.bitwise_divergence ~what:"tree and compiled tiers" rt rc = None
  in
  let tree_s = time_runs `Tree reps compiled ~entry:w.entry args in
  let compiled_s = time_runs `Compiled reps compiled ~entry:w.entry args in
  {
    name = w.name;
    pipeline = Pipelines.kind_name kind;
    reps;
    tree_s;
    compiled_s;
    identical;
  }

(* One timed run per mode: the gated property is bit-identity, and the
   wall-clock columns are indicative only (certified maps always execute
   the chunked schedule, so serial interpretation of auto-parallelized
   kernels is expensive — repeating it would dominate `dune runtest`). *)
let bench_par ~(jobs : int) (w : Workload.t) : par_row =
  let compiled =
    Pipelines.compile ~autopar:true Pipelines.Dcir ~src:w.src ~entry:w.entry
  in
  let args = w.args () in
  let t0 = Unix.gettimeofday () in
  let serial = Pipelines.run compiled ~entry:w.entry args in
  let t1 = Unix.gettimeofday () in
  let par = Pipelines.run ~jobs compiled ~entry:w.entry args in
  let t2 = Unix.gettimeofday () in
  {
    p_name = w.name;
    p_pipeline = "dcir-autopar";
    p_jobs = jobs;
    p_reps = 1;
    p_serial_s = t1 -. t0;
    p_parallel_s = t2 -. t1;
    p_identical =
      Pipelines.bitwise_divergence ~what:"serial and parallel runs" serial par
      = None;
  }

let () =
  let json_path = ref None and reps = ref 5 and jobs = ref 3 in
  let sweep = ref false in
  let int_arg flag r v rest scan =
    (match int_of_string_opt v with
    | Some n when n > 0 -> r := n
    | _ ->
        prerr_endline
          (Printf.sprintf "interp_bench: %s expects a positive integer" flag);
        exit 2);
    scan rest
  in
  let rec scan = function
    | [] -> ()
    | "--json" :: path :: rest ->
        json_path := Some path;
        scan rest
    | "--reps" :: n :: rest -> int_arg "--reps" reps n rest scan
    | "--jobs" :: n :: rest -> int_arg "--jobs" jobs n rest scan
    | "--sweep" :: rest ->
        sweep := true;
        scan rest
    | [ "--json" ] | [ "--reps" ] | [ "--jobs" ] ->
        prerr_endline "interp_bench: missing argument";
        exit 2
    | arg :: _ ->
        prerr_endline ("interp_bench: unknown argument " ^ arg);
        exit 2
  in
  scan (List.tl (Array.to_list Sys.argv));
  let reps = !reps and jobs = !jobs in
  (* SDFG-heavy subjects (native tasklets, maps, state-machine loops) plus
     an opaque-tasklet pipeline (dace: MLIR bodies behind connectors) and a
     pure-MLIR pipeline, so both interpreters' compiled tiers are
     exercised. *)
  let subjects : (Pipelines.kind * Workload.t) list =
    if !sweep then
      (* The acceptance sweep: every Polybench kernel through the dcir
         pipeline (SDFG products, the bytecode VM) and the gcc pipeline
         (MLIR products, the closure compiler), both tiers each. *)
      List.concat_map
        (fun w -> [ (Pipelines.Dcir, w); (Pipelines.Gcc, w) ])
        Polybench.all
    else
      [
        (Pipelines.Dcir, Polybench.gemm);
        (Pipelines.Dcir, Polybench.durbin);
        (Pipelines.Dace, Polybench.gemm);
        (Pipelines.Mlir, Polybench.gemm);
      ]
  in
  pr "== interpreter micro-benchmark: tree vs compiled (%d reps) ==@." reps;
  pr "  %-14s %-8s %11s %13s %8s %10s@." "workload" "pipeline" "tree (s)"
    "compiled (s)" "t/c" "identical";
  let rows = List.map (fun (k, w) -> bench_one ~reps k w) subjects in
  List.iter
    (fun r ->
      pr "  %-14s %-8s %11.4f %13.4f %7.2fx %10b@." r.name r.pipeline r.tree_s
        r.compiled_s (speedup r) r.identical)
    rows;
  let geomean f =
    exp
      (List.fold_left (fun acc r -> acc +. log (f r)) 0.0 rows
      /. float_of_int (List.length rows))
  in
  pr "  geomean speedup: tree/compiled %.2fx@." (geomean speedup);
  (* Auto-parallelized kernels: certified maps fan out over [jobs] domains.
     The gate is bit-identity to serial, not speed (see module doc). *)
  let par_subjects = [ Polybench.gemm; Polybench.mvt ] in
  pr "== parallel maps: serial vs %d worker domains ==@." jobs;
  pr "  %-10s %-12s %12s %12s %9s %10s@." "workload" "pipeline" "serial (s)"
    "parallel (s)" "speedup" "identical";
  let par_rows = List.map (bench_par ~jobs) par_subjects in
  List.iter
    (fun r ->
      pr "  %-10s %-12s %12.4f %12.4f %8.2fx %10b@." r.p_name r.p_pipeline
        r.p_serial_s r.p_parallel_s
        (speedup_of r.p_serial_s r.p_parallel_s)
        r.p_identical)
    par_rows;
  (match !json_path with
  | Some path -> (
      let report =
        Json.Obj
          [
            ("schema", Json.Str "dcir-interp-bench/4");
            ("benchmarks", Json.List (List.map row_json rows));
            ("parallel", Json.List (List.map par_row_json par_rows));
          ]
      in
      try
        let oc = open_out path in
        output_string oc (Json.to_string report);
        output_char oc '\n';
        close_out oc;
        pr "report written to %s@." path
      with Sys_error msg ->
        prerr_endline ("interp_bench: cannot write report: " ^ msg);
        exit 1)
  | None -> ());
  if List.exists (fun r -> not r.identical) rows then begin
    prerr_endline
      "interp_bench: FAIL — the compiled tier diverged from the tree walker";
    exit 1
  end;
  if List.exists (fun r -> not r.p_identical) par_rows then begin
    prerr_endline
      "interp_bench: FAIL — parallel execution diverged from serial";
    exit 1
  end
