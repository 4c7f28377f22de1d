(** Smoke check for the machine-readable bench reports ([dune runtest]).

    Reads a JSON report produced by either [dcir bench W --json FILE]
    (schema [dcir-bench/3]) or [bench/main.exe ... --json FILE] (schema
    [dcir-bench-report/1]),
    validates that it parses, and that every "pipelines" array it
    contains has a row for each of the five pipelines.
    Decision-event streams ([dcir-events/1], from [dcir explain --events]
    or [dcir fuzz --chaos|--coverage --events]) are gated on keys that
    neither the document nor an event repeats, contiguous sequence
    numbers, codes drawn from the closed catalogue, and a non-empty
    conflict witness on every autopar refusal; a chaos-armed campaign's
    stream also on the chaos oracle: no case ending in a wrong answer or
    an escaped exception, and for the chaos campaign's stream at least
    four fault kinds exercised. Also
    accepts interpreter micro-benchmark reports ([dcir-interp-bench/4], from
    [bench/interp_bench.exe]) and acts as the perf smoke test for the
    compiled tier: every row must be bit-identical to the tree walker AND
    at least as fast — a compiled tier slower than the tree it replaces
    is a regression, not noise. The report's "parallel" array (serial vs
    multi-domain execution of auto-parallelized kernels) is gated on
    bit-identity only — never on speedup, because the executor's contract
    is determinism and the CI host may have a single core.
    Serving journals ([dcir-serve-journal/3], from [dcir serve]) are
    gated on contiguous sequence numbers, catalogued SRV-* codes,
    attributable rejections/sheds, well-formed responses and a
    self-consistent summary.
    Exits non-zero with a message on any failure. *)

module Json = Dcir_obs.Json

let expected_pipelines = [ "gcc"; "clang"; "mlir"; "dace"; "dcir" ]

let fail fmt =
  Format.kasprintf
    (fun msg ->
      prerr_endline ("validate_report: " ^ msg);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Collect every value bound to key ["pipelines"] anywhere in the tree. *)
let rec pipelines_arrays (j : Json.t) : Json.t list =
  match j with
  | Json.Obj fields ->
      List.concat_map
        (fun (k, v) ->
          (if k = "pipelines" then [ v ] else []) @ pipelines_arrays v)
        fields
  | Json.List items -> List.concat_map pipelines_arrays items
  | _ -> []

let check_pipelines (arr : Json.t) : unit =
  let rows =
    match Json.to_list arr with
    | Some rows -> rows
    | None -> fail "\"pipelines\" is not an array"
  in
  let names =
    List.filter_map
      (fun row -> Option.bind (Json.member "name" row) Json.to_str)
      rows
  in
  (* Figures with framework-proxy pipelines (fig 8) use their own names;
     only arrays drawn from the standard pipeline set must be complete. *)
  if List.exists (fun p -> List.mem p names) expected_pipelines then
    List.iter
      (fun p ->
        if not (List.mem p names) then
          fail "pipeline %S missing (have: %s)" p (String.concat ", " names))
      expected_pipelines

(* Perf smoke for the compiled tier ([dcir-interp-bench/4]): closure
   compilation for MLIR products, the bytecode VM for SDFG products. *)
let check_interp_bench (j : Json.t) : unit =
  let rows =
    match Option.bind (Json.member "benchmarks" j) Json.to_list with
    | Some [] -> fail "\"benchmarks\" is empty"
    | Some rows -> rows
    | None -> fail "missing or non-array \"benchmarks\""
  in
  List.iter
    (fun row ->
      let str key =
        match Option.bind (Json.member key row) Json.to_str with
        | Some s -> s
        | None -> fail "benchmark row missing %S" key
      in
      let num key =
        match Json.member key row with
        | Some (Json.Float f) -> f
        | Some (Json.Int n) -> float_of_int n
        | _ -> fail "benchmark row missing numeric %S" key
      in
      let label = str "name" ^ "/" ^ str "pipeline" in
      (match Json.member "identical" row with
      | Some (Json.Bool true) -> ()
      | _ ->
          fail "%s: compiled tier diverged from the tree walker" label);
      ignore (num "speedup");
      let tree = num "tree_wall_s" and compiled = num "compiled_wall_s" in
      if not (compiled <= tree) then
        fail "%s: compiled tier slower than tree baseline (%.4fs vs %.4fs)"
          label compiled tree)
    rows

(* Determinism gate for parallel map execution (the "parallel" rows).
   Each row must be bit-identical to its serial run and carry well-formed
   timing fields; wall-clock speedup is deliberately NOT gated. *)
let check_parallel_bench (j : Json.t) : unit =
  let rows =
    match Option.bind (Json.member "parallel" j) Json.to_list with
    | Some [] -> fail "\"parallel\" is empty"
    | Some rows -> rows
    | None -> fail "missing or non-array \"parallel\""
  in
  List.iter
    (fun row ->
      let str key =
        match Option.bind (Json.member key row) Json.to_str with
        | Some s -> s
        | None -> fail "parallel row missing %S" key
      in
      let num key =
        match Json.member key row with
        | Some (Json.Float f) -> f
        | Some (Json.Int n) -> float_of_int n
        | _ -> fail "parallel row missing numeric %S" key
      in
      let label = str "name" ^ "/" ^ str "pipeline" in
      let jobs = num "jobs" in
      if jobs < 1.0 then fail "%s: nonsensical job count %.0f" label jobs;
      ignore (num "serial_wall_s");
      ignore (num "parallel_wall_s");
      match Json.member "identical" row with
      | Some (Json.Bool true) -> ()
      | _ -> fail "%s: parallel execution diverged from serial" label)
    rows

(* Serving journals ([dcir-serve-journal/3], from [dcir serve]). The
   journal is the serving engine's decision record, so the gate holds it
   to the same standard as the event stream: contiguous sequence
   numbers, every code drawn from the closed catalogue, every rejection
   and shed attributable (tenant + reason), well-formed responses, and a
   summary whose counts are recomputable from the stream itself. *)
let check_serve_journal (j : Json.t) : unit =
  let entries =
    match Option.bind (Json.member "entries" j) Json.to_list with
    | Some rows -> rows
    | None -> fail "missing or non-array \"entries\""
  in
  List.iteri
    (fun i row ->
      (match Json.member "seq" row with
      | Some (Json.Int s) when s = i -> ()
      | Some (Json.Int s) -> fail "entry %d has seq %d (not contiguous)" i s
      | _ -> fail "entry %d missing integer \"seq\"" i);
      let code =
        match Option.bind (Json.member "code" row) Json.to_str with
        | Some c -> c
        | None -> fail "entry %d missing \"code\"" i
      in
      if not (Dcir_obs.Events.is_known code) then
        fail "entry %d has code %S outside the catalogue" i code;
      (* Every rejection, shed and deadline kill must be attributable. *)
      if List.mem code [ "SRV-REJECT"; "SRV-SHED"; "SRV-DEADLINE" ] then
        List.iter
          (fun key ->
            match Option.bind (Json.member key row) Json.to_str with
            | Some v when String.trim v <> "" -> ()
            | _ -> fail "entry %d (%s) missing %S" i code key)
          [ "tenant"; "reason" ];
      (* Every worker incident must name the request and tenant it hit —
         an unattributable kill would make the crash-isolation story
         unauditable. *)
      if
        List.mem code
          [
            "SRV-WORKER-KILL"; "SRV-WORKER-POISON"; "SRV-WORKER-WATCHDOG";
            "SRV-WORKER-CRASH";
          ]
      then
        List.iter
          (fun key ->
            match Option.bind (Json.member key row) Json.to_str with
            | Some v when String.trim v <> "" -> ()
            | _ -> fail "entry %d (%s) missing %S" i code key)
          [ "id"; "tenant" ])
    entries;
  let responses =
    match Option.bind (Json.member "responses" j) Json.to_list with
    | Some rows -> rows
    | None -> fail "missing or non-array \"responses\""
  in
  let statuses =
    List.mapi
      (fun i row ->
        List.iter
          (fun key ->
            match Option.bind (Json.member key row) Json.to_str with
            | Some _ -> ()
            | None -> fail "response %d missing %S" i key)
          [ "id"; "tenant"; "code" ];
        (match Json.member "attempts" row with
        | Some (Json.Int n) when n >= 0 -> ()
        | _ -> fail "response %d missing non-negative \"attempts\"" i);
        match Option.bind (Json.member "status" row) Json.to_str with
        | Some (("ok" | "rejected" | "failed") as s) -> s
        | Some s -> fail "response %d has unknown status %S" i s
        | None -> fail "response %d missing \"status\"" i)
      responses
  in
  let summary =
    match Json.member "summary" j with
    | Some (Json.Obj fields) -> fields
    | _ -> fail "missing or non-object \"summary\""
  in
  let summary_int key =
    match List.assoc_opt key summary with
    | Some (Json.Int n) -> n
    | _ -> fail "summary missing integer %S" key
  in
  let expect key actual =
    let claimed = summary_int key in
    if claimed <> actual then
      fail "summary says %s %d, journal has %d" key claimed actual
  in
  let status_count s = List.length (List.filter (( = ) s) statuses) in
  let code_count c =
    List.length
      (List.filter
         (fun row -> Option.bind (Json.member "code" row) Json.to_str = Some c)
         entries)
  in
  expect "requests" (List.length responses);
  expect "ok" (status_count "ok");
  expect "rejected" (status_count "rejected");
  expect "failed" (status_count "failed");
  expect "retries" (code_count "SRV-RETRY");
  expect "shed" (code_count "SRV-SHED");
  match List.assoc_opt "codes" summary with
  | Some (Json.Obj codes) ->
      List.iter
        (fun (c, v) ->
          if v <> Json.Int (code_count c) then
            fail "summary codes say %s %s, entries have %d" c
              (Json.to_string v) (code_count c))
        codes
  | _ -> fail "summary missing \"codes\" object"

(* Decision-event streams ([dcir-events/1]): no key repeated in the
   document or in an event (a reader sees only one of the two), contiguous
   sequence numbers starting at 0, every code in the closed catalogue,
   and a non-empty conflict witness on every autopar refusal — an
   unexplained refusal is a provenance bug, not an optimization decision.
   A stream with [CHAOS-CASE] events comes from a chaos-armed campaign:
   every case names its faults and no [CHAOS-OUTCOME] is an oracle
   violation. The chaos campaign's own stream (header [tool] "dcir fuzz
   --chaos") must also have exercised at least four fault kinds; a
   coverage stream of a few cases may arm fewer. *)
let check_events (j : Json.t) : unit =
  let unique_keys what = function
    | Json.Obj fields ->
        ignore
          (List.fold_left
             (fun seen (k, _) ->
               if List.mem k seen then fail "%s repeats key %S" what k;
               k :: seen)
             [] fields)
    | _ -> ()
  in
  unique_keys "the document" j;
  let events =
    match Option.bind (Json.member "events" j) Json.to_list with
    | Some rows -> rows
    | None -> fail "missing or non-array \"events\""
  in
  (match Json.member "count" j with
  | Some (Json.Int n) when n = List.length events -> ()
  | Some (Json.Int n) ->
      fail "\"count\" says %d, stream has %d event(s)" n (List.length events)
  | _ -> fail "missing integer \"count\"");
  let cases = ref 0 and faults = ref [] in
  List.iteri
    (fun i row ->
      unique_keys (Printf.sprintf "event %d" i) row;
      (match Json.member "seq" row with
      | Some (Json.Int s) when s = i -> ()
      | Some (Json.Int s) -> fail "event %d has seq %d (not contiguous)" i s
      | _ -> fail "event %d missing integer \"seq\"" i);
      let code =
        match Option.bind (Json.member "code" row) Json.to_str with
        | Some c -> c
        | None -> fail "event %d missing \"code\"" i
      in
      if not (Dcir_obs.Events.is_known code) then
        fail "event %d has code %S outside the catalogue" i code;
      match code with
      | "APAR-REFUSE" -> (
          match Option.bind (Json.member "witness" row) Json.to_str with
          | Some w when String.trim w <> "" -> ()
          | _ -> fail "event %d: APAR-REFUSE without a conflict witness" i)
      | "CHAOS-CASE" -> (
          incr cases;
          match Option.bind (Json.member "faults" row) Json.to_list with
          | Some fs -> faults := List.filter_map Json.to_str fs @ !faults
          | None -> fail "event %d: CHAOS-CASE without \"faults\"" i)
      | "CHAOS-OUTCOME" -> (
          match Option.bind (Json.member "outcome" row) Json.to_str with
          | Some ("wrong-answer" | "escaped") ->
              fail "event %d records a chaos oracle violation: %s" i
                (Json.to_string row)
          | Some _ -> ()
          | None -> fail "event %d: CHAOS-OUTCOME without \"outcome\"" i)
      | _ -> ())
    events;
  let kinds = List.sort_uniq compare !faults in
  if
    Json.member "tool" j = Some (Json.Str "dcir fuzz --chaos")
    && !cases > 0
    && List.length kinds < 4
  then
    fail "chaos campaign exercised only %d fault kind(s): %s"
      (List.length kinds) (String.concat ", " kinds)

let check_bench (path : string) (j : Json.t) : unit =
  match pipelines_arrays j with
  | [] -> fail "no \"pipelines\" arrays found in %s" path
  | arrs -> List.iter check_pipelines arrs

let dispatch (path : string) (j : Json.t) : unit =
  match Json.member "schema" j with
  | Some (Json.Str ("dcir-bench-report/1" | "dcir-bench/3")) ->
      check_bench path j
  | Some (Json.Str "dcir-interp-bench/4") ->
      check_interp_bench j;
      check_parallel_bench j
  | Some (Json.Str "dcir-events/1") -> check_events j
  | Some (Json.Str "dcir-serve-journal/3") -> check_serve_journal j
  | Some s -> fail "unexpected schema %s" (Json.to_string s)
  | None -> fail "missing \"schema\" field"

(* Serving journals record their worker count in the config header; the
   pool's contract is that nothing else may depend on it. Dropping the
   field is the only normalization [--same-serve] applies — every other
   byte must agree. *)
let strip_workers (j : Json.t) : Json.t =
  match j with
  | Json.Obj fields ->
      Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | "config", Json.Obj cfg ->
                 ("config", Json.Obj (List.remove_assoc "workers" cfg))
             | _ -> (k, v))
           fields)
  | _ -> j

let usage () =
  fail
    "usage: validate_report FILE.json [--same-serve OTHER.json] \
     [--require-code CODE]"

let () =
  let path, opts =
    match Array.to_list Sys.argv with
    | _ :: path :: rest -> (path, rest)
    | _ -> usage ()
  in
  let same_serve = ref None and require_codes = ref [] in
  let rec parse_opts = function
    | [] -> ()
    | "--same-serve" :: other :: rest ->
        same_serve := Some other;
        parse_opts rest
    | "--require-code" :: code :: rest ->
        require_codes := code :: !require_codes;
        parse_opts rest
    | _ -> usage ()
  in
  parse_opts opts;
  let parse path =
    let text =
      try read_file path with Sys_error msg -> fail "cannot read: %s" msg
    in
    match Json.parse text with
    | Ok j -> j
    | Error e -> fail "%s does not parse: %s" path e
  in
  let j = parse path in
  dispatch path j;
  (match !same_serve with
  | None -> ()
  | Some other ->
      let oj = parse other in
      List.iter
        (fun (p, doc) ->
          match Json.member "schema" doc with
          | Some (Json.Str "dcir-serve-journal/3") -> ()
          | _ -> fail "--same-serve: %s is not a serve journal" p)
        [ (path, j); (other, oj) ];
      if
        Json.to_string (strip_workers j) <> Json.to_string (strip_workers oj)
      then
        fail
          "--same-serve: %s and %s differ beyond the recorded worker count"
          path other);
  List.iter
    (fun code ->
      let entries =
        Option.value ~default:[]
          (Option.bind (Json.member "entries" j) Json.to_list)
      in
      let hits =
        List.filter
          (fun row ->
            Option.bind (Json.member "code" row) Json.to_str = Some code)
          entries
      in
      if hits = [] then
        fail "--require-code: no %s entry in %s" code path)
    !require_codes;
  print_endline ("validate_report: " ^ path ^ " OK")
