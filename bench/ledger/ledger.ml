(** The cost ledger: the repository's benchmark (report schema
    [dcir-ledger/1]).

    {v
    ledger.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
               [--report FILE] [--trace-out FILE] [--benchmark FILE]
    ledger.exe --all --report FILE [--seed N] [--seconds S] [--trace 0|1]
    ledger.exe compare A.json B.json [--benchmark FILE]
    ledger.exe --smoke [--benchmark FILE]
    v}

    One workload runs per process, so its set-up time and peak heap are
    its own: the inputs are built repeatedly (the median is [setup_s]),
    the reference outputs are computed, and timed reps follow until
    [--seconds] have been spent in them. With [--trace 1] one warm-up rep
    and one traced rep run before the timed reps, so the traced rep's
    process history, and with it every allocation and count, is the same
    in every invocation. [--all] runs the four workloads as four child
    processes and merges their reports.

    The last line of standard output is one JSON object with [correct],
    [attempted], [failed] and [metrics]: the end-to-end metrics that
    BENCHMARK.json lists, or with [--trace 1] its per-layer metrics. A
    wrong answer exits 1 after that line. See README.md for the metric
    definitions. *)

module Json = Dcir_obs.Json
module W = Workloads

let pr fmt = Printf.printf fmt

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("ledger: " ^ s);
      exit 2)
    fmt

(* ---- BENCHMARK.json ------------------------------------------------- *)

type spec_metric = { m_name : string; m_unit : string; m_better : string; m_bound : float }

type spec = {
  run_seconds : int;
  end_to_end : spec_metric list;
  per_layer : spec_metric list;
}

let num = function Json.Int n -> Some (float_of_int n) | Json.Float f -> Some f | _ -> None

let read_file (path : string) : string =
  try In_channel.with_open_bin path In_channel.input_all
  with Sys_error e -> die "%s" e

let read_json (path : string) : Json.t =
  match Json.parse (read_file path) with
  | Ok j -> j
  | Error e -> die "%s: %s" path e

let read_spec (path : string) : spec =
  let j = read_json path in
  let str k m = Option.bind (Json.member k m) Json.to_str in
  let metrics key =
    Option.bind (Json.member key j) Json.to_list
    |> Option.value ~default:[]
    |> List.map (fun m ->
           match (str "name" m, str "unit" m, str "better" m) with
           | Some m_name, Some m_unit, Some m_better ->
               {
                 m_name;
                 m_unit;
                 m_better;
                 m_bound =
                   Option.value ~default:0.0 (Option.bind (Json.member "bound" m) num);
               }
           | _ -> die "%s: malformed %s entry" path key)
  in
  {
    run_seconds =
      (match Option.bind (Json.member "run_seconds" j) num with
      | Some s -> int_of_float s
      | None -> die "%s: no run_seconds" path);
    end_to_end = metrics "end_to_end";
    per_layer = metrics "per_layer";
  }

(* ---- one workload ----------------------------------------------------- *)

(* The inputs are built [setup_min] times before the first op and again
   for [setup_slice] seconds after every timed rep, so that no slow spell
   of the host covers every sample; [setup_s] is their median. *)
let setup_min = 5
let setup_slice = 0.1
let nproc = Domain.recommended_domain_count ()

(* Serve pools run on two worker domains, never more than the host has. *)
let workers = max 1 (min 2 nproc)

(* [value] is the reported estimate; [samples] are its per-rep (or per
   set-up) readings, and [q1], [q3] their quartiles. *)
type summary = { value : float; q1 : float; q3 : float; samples : float list }

let summarize ~(value : float) (samples : float list) : summary =
  let q1, q3 = Stats.quartiles samples in
  { value; q1; q3; samples }

let end_to_end_units =
  [
    ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("peak_heap_mb", "MB");
  ]

(* Each op's latency is its least over the timed reps, and throughput
   counts the ops of a rep over the sum of those least latencies. On a
   shared host, slow periods stretch whole reps by 10-20%; over ten runs
   of the sweep, the least spread 12% where the median spread 17%. *)
let end_to_end ~(setup : float list) ~(ops : int) ~(heap_mb : float)
    (reps : W.rep list) : (string * summary) list =
  let best =
    match reps with
    | [] -> []
    | r :: rest ->
        List.fold_left (fun acc (r : W.rep) -> List.map2 Float.min acc r.lat_ms) r.W.lat_ms rest
  in
  let per_rep f = List.map f reps in
  let latency p =
    summarize ~value:(Stats.percentile best p) (per_rep (fun r -> Stats.percentile r.W.lat_ms p))
  in
  [
    ("setup_s", summarize ~value:(Stats.median setup) setup);
    ( "ops_per_s",
      summarize
        ~value:(float_of_int ops /. (List.fold_left ( +. ) 0.0 best /. 1e3))
        (per_rep (fun r -> float_of_int ops /. r.W.wall_s)) );
    ("op_ms_p50", latency 50.0);
    ("op_ms_p90", latency 90.0);
    ("peak_heap_mb", summarize ~value:heap_mb [ heap_mb ]);
  ]

(* How [compare] treats a per-layer metric: times are reported, not
   compared; counts must repeat exactly; the scheduling-dependent counts of
   the worker pool may differ between runs of the same code. *)
let scheduling_dependent =
  [
    "serve.coalesced";
    "serve.pool_divergent";
    "serve.pool_wrong";
    "serve.pool_store_misses";
    "serve.pool.alloc_mw";
  ]

let in_ms (name : string) : bool =
  String.ends_with ~suffix:".ms" name || String.ends_with ~suffix:"_ms" name

let kind_of (name : string) : string =
  if in_ms name || String.starts_with ~prefix:"trace" name then "time"
  else if List.mem name scheduling_dependent then "sched"
  else "count"

let unit_of (name : string) : string =
  if in_ms name then "ms"
  else if String.ends_with ~suffix:"alloc_mw" name then "Mw"
  else if String.ends_with ~suffix:"share" name || String.ends_with ~suffix:"ratio" name
  then "ratio"
  else if String.ends_with ~suffix:"per_request" name then "attempts"
  else if String.starts_with ~prefix:"machine.cycles" name
          || String.ends_with ~suffix:"cycles_geomean" name
  then "cycles"
  else "count"

(* Per-layer metrics of the traced rep plus its side measurements. [covered]
   is the layer self time inside the traced ops, before the side
   measurements were added. *)
let per_layer ~(ops : int) ~(traced_wall : float) ~(covered : float)
    ~(untraced : float) : (string * float) list =
  let layers = Trace.layers () in
  let get name = Option.value ~default:0.0 (Hashtbl.find_opt Trace.counts name) in
  let layer name = Option.value ~default:(0.0, 0.0) (Hashtbl.find_opt layers name) in
  let from_layers =
    Hashtbl.fold
      (fun name (t, w) acc -> ((name ^ ".ms"), t *. 1e3) :: ((name ^ ".alloc_mw"), w /. 1e6) :: acc)
      layers []
  in
  let exec_t, exec_w =
    let t1, w1 = layer "sdfg.exec" and t2, w2 = layer "mlir.exec" in
    (t1 +. t2, w1 +. w2)
  in
  let ratio a b = if b > 0.0 then a /. b else 0.0 in
  let hits = get "serve.store_hits" in
  List.sort compare
    (from_layers
    @ Hashtbl.fold (fun k v acc -> (k, v) :: acc) Trace.counts []
    @ [
        ("exec.ms", exec_t *. 1e3);
        ("exec.alloc_mw", exec_w /. 1e6);
        ("autopar.convert_ratio", ratio (get "autopar.converted") (get "autopar.loops"));
        ("serve.store_hit_ratio", ratio hits (hits +. get "serve.store_misses"));
        ("serve.attempts_per_request", ratio (get "serve.attempts") (float_of_int ops));
        ("trace.wall_ms", traced_wall *. 1e3);
        ("trace.layer_share", ratio covered traced_wall);
        ("trace_overhead_share", ratio (traced_wall -. untraced) untraced);
      ])

type result = {
  json : Json.t;  (** the workload's entry in the ledger report *)
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * summary) list;
  layers : (string * float) list;
}

let summary_json (unit : string) (s : summary) : Json.t =
  Json.Obj
    [
      ("unit", Json.Str unit);
      ("value", Json.Float s.value);
      ("q1", Json.Float s.q1);
      ("q3", Json.Float s.q3);
      ("samples", Json.List (List.map (fun x -> Json.Float x) s.samples));
    ]

let run_workload ?(sizes = W.full) ?(warmup = true) ~(seed : int) ~(seconds : float)
    ~(trace : bool) ~(workers : int) (w : W.t) : result * Json.t option =
  let setup = ref [] in
  let build () =
    (* Every build starts from a settled heap, not from the collection
       debt the previous one left. *)
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let inst = w.build sizes ~seed ~workers in
    setup := (Unix.gettimeofday () -. t0) :: !setup;
    inst
  in
  let inst = build () in
  for _ = 2 to setup_min do
    ignore (build ())
  done;
  inst.reference ();
  let wrong = ref [] in
  let keep (r : W.rep) = wrong := !wrong @ r.wrong in
  (* The traced rep follows one warm-up rep, so its process history, and
     with it every count and allocation, is the same in every run. The
     untraced reps need no warm-up: the least over them drops a cold first
     rep. *)
  if trace && warmup then keep (inst.rep ());
  let traced =
    if not trace then None
    else begin
      Trace.reset ();
      Trace.enable ();
      let r = inst.traced () in
      keep r;
      let covered =
        Hashtbl.fold
          (fun name (t, _) acc -> if name = "op" then acc else acc +. t)
          (Trace.layers ()) 0.0
      in
      wrong := !wrong @ inst.side ();
      Trace.disable ();
      Some (r, covered)
    end
  in
  let chrome = Option.map (fun _ -> Trace.chrome ()) traced in
  let reps = ref [] and spent = ref 0.0 and heap_mb = ref 0.0 in
  while !reps = [] || !spent < seconds do
    let t0 = Unix.gettimeofday () in
    let r = inst.rep () in
    spent := !spent +. (Unix.gettimeofday () -. t0);
    keep r;
    (* The peak after the first timed rep: later reps repeat the same work,
       and how many of them fit in [seconds] depends on the host. *)
    if !reps = [] then
      heap_mb :=
        float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1e6;
    reps := r :: !reps;
    let t0 = Unix.gettimeofday () in
    while Unix.gettimeofday () -. t0 < setup_slice do
      ignore (build ())
    done
  done;
  let reps = List.rev !reps in
  let e2e = end_to_end ~setup:(List.rev !setup) ~ops:inst.ops ~heap_mb:!heap_mb reps in
  let layers =
    match traced with
    | None -> []
    | Some (r, covered) ->
        per_layer ~ops:inst.ops ~traced_wall:r.W.wall_s ~covered
          ~untraced:(Stats.median (List.map (fun (r : W.rep) -> r.wall_s) reps))
  in
  Trace.reset ();
  let attempted = List.fold_left (fun a (r : W.rep) -> a + r.attempted) 0 reps in
  let failed = List.fold_left (fun a (r : W.rep) -> a + r.failed) 0 reps in
  let json =
    Json.Obj
      ([
         ("name", Json.Str w.name);
         ("seed", Json.Int seed);
         ("seconds", Json.Float seconds);
         ("nproc", Json.Int nproc);
         ("workers", Json.Int workers);
         ("ops_per_rep", Json.Int inst.ops);
         ("reps", Json.Int (List.length reps));
         ("setup_reps", Json.Int (List.length !setup));
         ("correct", Json.Bool (!wrong = []));
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("fail_share", Json.Float (float_of_int failed /. float_of_int attempted));
         ("wrong", Json.List (List.map (fun s -> Json.Str s) !wrong));
         ( "end_to_end",
           Json.Obj
             (List.map
                (fun (name, s) -> (name, summary_json (List.assoc name end_to_end_units) s))
                e2e) );
       ]
      @
      if layers = [] then []
      else
        [
          ( "per_layer",
            Json.Obj
              (List.map
                 (fun (name, v) ->
                   ( name,
                     Json.Obj
                       [
                         ("value", Json.Float v);
                         ("unit", Json.Str (unit_of name));
                         ("kind", Json.Str (kind_of name));
                       ] ))
                 layers) );
        ])
  in
  ({ json; correct = !wrong = []; attempted; failed; e2e; layers }, chrome)

let report_json (workloads : Json.t list) : Json.t =
  Json.Obj
    [ ("schema", Json.Str "dcir-ledger/1"); ("workloads", Json.List workloads) ]

let write_json (path : string) (j : Json.t) : unit =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Json.to_string j);
      output_char oc '\n')

(* The human-readable part of the output: the values and the layer table. *)
let print_tables (w : W.t) (r : result) : unit =
  pr "== %s: %d ops attempted, %d failed, %s ==\n" w.name r.attempted r.failed
    (if r.correct then "all answers correct" else "WRONG ANSWERS");
  List.iter
    (fun (name, s) ->
      pr "  %-14s %14.6g  [q1 %.6g, q3 %.6g] %s\n" name s.value s.q1 s.q3
        (List.assoc name end_to_end_units))
    r.e2e;
  if r.layers <> [] then begin
    pr "  -- per layer (traced rep) --\n";
    List.iter (fun (name, v) -> pr "  %-40s %16.6g %s\n" name v (unit_of name)) r.layers
  end

(* The result line: exactly the metrics BENCHMARK.json lists. *)
let result_line (spec : spec) ~(trace : bool) (r : result) : string =
  let metric (m : spec_metric) =
    let value =
      if trace then Option.value ~default:0.0 (List.assoc_opt m.m_name r.layers)
      else
        match List.assoc_opt m.m_name r.e2e with
        | Some s -> s.value
        | None -> die "BENCHMARK.json lists %s, which the ledger does not measure" m.m_name
    in
    (m.m_name, Json.Obj [ ("value", Json.Float value); ("unit", Json.Str m.m_unit) ])
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Int r.attempted);
         ("failed", Json.Int r.failed);
         ( "metrics",
           Json.Obj (List.map metric (if trace then spec.per_layer else spec.end_to_end)) );
       ])

let find_workload (name : string) : W.t =
  match List.find_opt (fun (w : W.t) -> w.name = name) W.all with
  | Some w -> w
  | None ->
      die "unknown workload %s (one of: %s)" name
        (String.concat ", " (List.map (fun (w : W.t) -> w.name) W.all))

(* ---- compare ---------------------------------------------------------- *)

let workload_list (j : Json.t) : (string * Json.t) list =
  Option.bind (Json.member "workloads" j) Json.to_list
  |> Option.value ~default:[]
  |> List.filter_map (fun w ->
         Option.map (fun n -> (n, w)) (Option.bind (Json.member "name" w) Json.to_str))

let field path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let floats j = Option.bind j Json.to_list |> Option.value ~default:[] |> List.filter_map num

type verdict = Within | Better | Worse | Unresolved

let verdict_name = function
  | Within -> "within"
  | Better -> "better"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* [a] is the parent, [b] the change; [worse] is positive when [b] is
   worse, as a share of [a]'s value. *)
let judge (m : spec_metric) (a : summary) (b : summary) : float * verdict =
  let lower = m.m_better = "lower" in
  let worse = (if lower then b.value -. a.value else a.value -. b.value) /. a.value in
  let spread s = (s.q3 -. s.q1) /. Float.abs s.value in
  let beats x y = if lower then x < y else x > y in
  let all_better =
    List.for_all (fun y -> List.for_all (fun x -> beats y x) a.samples) b.samples
  in
  if Float.max (spread a) (spread b) > m.m_bound then
    (worse, if all_better then Better else Unresolved)
  else if worse > m.m_bound then (worse, Worse)
  else if -.worse > m.m_bound then (worse, Better)
  else (worse, Within)

let summary_of (j : Json.t) : summary option =
  match (Option.bind (Json.member "value" j) num, Option.bind (Json.member "q1" j) num,
         Option.bind (Json.member "q3" j) num) with
  | Some value, Some q1, Some q3 ->
      Some { value; q1; q3; samples = floats (Json.member "samples" j) }
  | _ -> None

(* Prints one row per workload and end-to-end metric (unless [quiet]), and
   returns the number of regressions: worse values and counts that did
   not repeat. *)
let compare_reports ?(quiet = false) (spec : spec) (a : Json.t) (b : Json.t) : int =
  let pr fmt = if quiet then Printf.ifprintf stdout fmt else Printf.printf fmt in
  let bad = ref 0 in
  let wb = workload_list b in
  pr "%-16s %-13s %14s %23s %14s %23s %8s %6s  %s\n" "workload" "metric" "A value"
    "A [q1, q3]" "B value" "B [q1, q3]" "delta" "bound" "verdict";
  List.iter
    (fun (name, wa) ->
      match List.assoc_opt name wb with
      | None ->
          incr bad;
          pr "%-16s missing from B\n" name
      | Some wb ->
          List.iter
            (fun (m : spec_metric) ->
              match
                ( Option.bind (field [ "end_to_end"; m.m_name ] wa) summary_of,
                  Option.bind (field [ "end_to_end"; m.m_name ] wb) summary_of )
              with
              | Some sa, Some sb ->
                  let worse, v = judge m sa sb in
                  if v = Worse then incr bad;
                  let signed =
                    if m.m_better = "lower" then worse else -.worse
                  in
                  pr "%-16s %-13s %14.6g [%10.4g, %10.4g] %14.6g [%10.4g, %10.4g] %+7.2f%% %5.0f%%  %s\n"
                    name m.m_name sa.value sa.q1 sa.q3 sb.value sb.q1 sb.q3
                    (signed *. 100.0) (m.m_bound *. 100.0) (verdict_name v)
              | _ ->
                  incr bad;
                  pr "%-16s %-13s missing\n" name m.m_name)
            spec.end_to_end;
          let layer w =
            Option.bind (Json.member "per_layer" w) (function
              | Json.Obj kvs -> Some kvs
              | _ -> None)
            |> Option.value ~default:[]
          in
          let la = layer wa and lb = layer wb in
          let value j = Option.bind (Json.member "value" j) num in
          let kind j = Option.bind (Json.member "kind" j) Json.to_str in
          let mismatches =
            List.filter_map
              (fun (k, ja) ->
                if kind ja <> Some "count" then None
                else
                  match List.assoc_opt k lb with
                  | Some jb when value ja = value jb -> None
                  | Some jb ->
                      Some
                        (Printf.sprintf "%s: %s vs %s" k
                           (Option.fold ~none:"-" ~some:(Printf.sprintf "%.12g") (value ja))
                           (Option.fold ~none:"-" ~some:(Printf.sprintf "%.12g") (value jb)))
                  | None -> Some (k ^ ": missing from B"))
              la
          in
          if la <> [] || lb <> [] then begin
            let counted = List.length (List.filter (fun (_, j) -> kind j = Some "count") la) in
            if mismatches = [] then
              pr "%-16s %d deterministic per-layer counts identical\n" name counted
            else begin
              bad := !bad + List.length mismatches;
              List.iter (fun s -> pr "%-16s count differs: %s\n" name s) mismatches
            end
          end)
    (workload_list a);
  !bad

(* ---- smoke ------------------------------------------------------------ *)

(* Small inputs through every workload, traced, so the serve batches run on
   one worker and on the pool: the answers, the traced sweep's
   bit-identity with the untraced one, the report schema and the result
   line. No timing is asserted. *)
let smoke (spec : spec) : int =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let produced = Hashtbl.create 64 in
  List.iter
    (fun (w : W.t) ->
      let r, _ =
        run_workload ~sizes:W.smoke ~warmup:false ~seed:42 ~seconds:0.0
          ~trace:true ~workers w
      in
      pr "smoke %-16s %d ops, %d failed, %s\n%!" w.name r.attempted r.failed
        (if r.correct then "correct" else "WRONG");
      if not r.correct then problem "%s: wrong answers" w.name;
      if r.failed > 0 then problem "%s: %d ops failed" w.name r.failed;
      List.iter
        (fun (m : spec_metric) ->
          match field [ "end_to_end"; m.m_name; "value" ] r.json with
          | Some (Json.Float f) when Float.is_finite f -> ()
          | _ -> problem "%s: end-to-end metric %s missing" w.name m.m_name)
        spec.end_to_end;
      List.iter (fun (name, _) -> Hashtbl.replace produced name ()) r.layers;
      (* A listed time must be measured on every workload: a layer that a
         workload never enters belongs in the report only. *)
      List.iter
        (fun (m : spec_metric) ->
          if m.m_unit = "ms" && not (List.assoc_opt m.m_name r.layers > Some 0.0) then
            problem "%s: per-layer time %s is not measured here" w.name m.m_name)
        spec.per_layer;
      List.iter
        (fun trace ->
          match Json.parse (result_line spec ~trace r) with
          | Ok j when Json.member "metrics" j <> None -> ()
          | _ -> problem "%s: result line does not parse" w.name)
        [ false; true ];
      let doc = report_json [ r.json ] in
      if compare_reports ~quiet:true spec doc doc <> 0 then
        problem "%s: a report does not compare equal to itself" w.name)
    W.all;
  List.iter
    (fun (m : spec_metric) ->
      if not (Hashtbl.mem produced m.m_name) then
        problem "per-layer metric %s is produced by no workload" m.m_name)
    spec.per_layer;
  List.iter (fun p -> prerr_endline ("smoke: " ^ p)) (List.rev !problems);
  List.length !problems

(* ---- main ------------------------------------------------------------- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let workload = ref None and seed = ref 42 and seconds = ref None in
  let trace = ref false and report = ref None and trace_out = ref None in
  let benchmark = ref "BENCHMARK.json" and all = ref false and smoke_mode = ref false in
  let compare_files = ref None in
  let int_arg flag v =
    match int_of_string_opt v with Some n -> n | None -> die "%s expects an integer" flag
  in
  let rec scan = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; scan rest
    | "--seed" :: v :: rest -> seed := int_arg "--seed" v; scan rest
    | "--seconds" :: v :: rest -> seconds := Some (int_arg "--seconds" v); scan rest
    | "--trace" :: v :: rest -> trace := int_arg "--trace" v <> 0; scan rest
    | "--report" :: v :: rest -> report := Some v; scan rest
    | "--trace-out" :: v :: rest -> trace_out := Some v; scan rest
    | "--benchmark" :: v :: rest -> benchmark := v; scan rest
    | "--all" :: rest -> all := true; scan rest
    | "--smoke" :: rest -> smoke_mode := true; scan rest
    | "compare" :: a :: b :: rest -> compare_files := Some (a, b); scan rest
    | arg :: _ -> die "unknown or incomplete argument %s" arg
  in
  scan args;
  let spec = read_spec !benchmark in
  let seconds = float_of_int (Option.value !seconds ~default:spec.run_seconds) in
  match (!compare_files, !smoke_mode, !all, !workload) with
  | Some (a, b), _, _, _ ->
      exit (if compare_reports spec (read_json a) (read_json b) = 0 then 0 else 1)
  | None, true, _, _ -> exit (if smoke spec = 0 then 0 else 1)
  | None, false, true, _ ->
      let report =
        match !report with Some r -> r | None -> die "--all needs --report FILE"
      in
      let stem = Filename.remove_extension report in
      let results =
        List.map
          (fun (w : W.t) ->
            let part = Printf.sprintf "%s.%s.part" stem w.name in
            let argv =
              [ Sys.executable_name; "--workload"; w.name; "--seed"; string_of_int !seed;
                "--seconds"; string_of_int (truncate seconds);
                "--trace"; (if !trace then "1" else "0");
                "--report"; part; "--benchmark"; !benchmark ]
              @ if !trace then [ "--trace-out"; Printf.sprintf "%s.%s.trace.json" stem w.name ]
                else []
            in
            let pid =
              Unix.create_process Sys.executable_name (Array.of_list argv) Unix.stdin
                Unix.stdout Unix.stderr
            in
            let status = snd (Unix.waitpid [] pid) in
            let parts =
              if Sys.file_exists part then begin
                let j = read_json part in
                Sys.remove part;
                List.map snd (workload_list j)
              end
              else []
            in
            (status = Unix.WEXITED 0, parts))
          W.all
      in
      write_json report (report_json (List.concat_map snd results));
      pr "ledger report written to %s\n" report;
      exit (if List.for_all fst results then 0 else 1)
  | None, false, false, Some name ->
      let w = find_workload name in
      let r, chrome = run_workload ~seed:!seed ~seconds ~trace:!trace ~workers w in
      Option.iter (fun path -> write_json path (report_json [ r.json ])) !report;
      Option.iter (fun path -> Option.iter (write_json path) chrome) !trace_out;
      print_tables w r;
      print_endline (result_line spec ~trace:!trace r);
      exit (if r.correct then 0 else 1)
  | None, false, false, None -> die "give --workload NAME, --all, --smoke or compare A B"
