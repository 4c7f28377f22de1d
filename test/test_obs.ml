(** Tests for the telemetry substrate (lib/obs): span nesting and exception
    safety, spans from other domains dropped, Chrome trace_event JSON
    well-formedness via the in-repo JSON parser, and end-to-end profile
    attribution (per-state cycles partition the interpreter's total). *)

module Obs = Dcir_obs.Obs
module Json = Dcir_obs.Json
module Pipelines = Dcir_core.Pipelines

let with_collection f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable f

let test_span_nesting () =
  with_collection (fun () ->
      let r =
        Obs.with_span "outer" (fun () ->
            Obs.with_span "first" (fun () -> ());
            Obs.with_span "second" (fun () -> 42))
      in
      Alcotest.(check int) "with_span passes the result through" 42 r;
      match Obs.roots () with
      | [ outer ] ->
          Alcotest.(check string) "root name" "outer" (Obs.span_name outer);
          Alcotest.(check (list string))
            "children in order" [ "first"; "second" ]
            (List.map Obs.span_name (Obs.span_children outer));
          Alcotest.(check bool) "non-negative duration" true
            (Obs.span_duration_ms outer >= 0.0);
          List.iter
            (fun c ->
              Alcotest.(check bool) "child within parent" true
                (Obs.span_duration_ms c <= Obs.span_duration_ms outer))
            (Obs.span_children outer)
      | rs -> Alcotest.failf "expected one root, got %d" (List.length rs))

let test_span_exception_safety () =
  with_collection (fun () ->
      (try
         Obs.with_span "outer" (fun () ->
             Obs.with_span "boom" (fun () -> failwith "boom"))
       with Failure _ -> ());
      match Obs.roots () with
      | [ outer ] ->
          Alcotest.(check (list string))
            "raising span still recorded" [ "boom" ]
            (List.map Obs.span_name (Obs.span_children outer))
      | rs -> Alcotest.failf "expected one root, got %d" (List.length rs))

(* The collector is one global record: a span opened on another domain
   (a serve pool worker compiling) must not reach it. *)
let test_worker_domain_spans_dropped () =
  with_collection (fun () ->
      Obs.with_span "main" (fun () ->
          Domain.join
            (Domain.spawn (fun () -> Obs.with_span "worker" (fun () -> ()))));
      match Obs.roots () with
      | [ main ] ->
          Alcotest.(check (list string))
            "no span from the worker domain" []
            (List.map Obs.span_name (Obs.span_children main))
      | rs -> Alcotest.failf "expected one root, got %d" (List.length rs))

let test_disabled_is_passthrough () =
  Obs.disable ();
  Obs.reset ();
  let r = Obs.with_span "ignored" (fun () -> 7) in
  Alcotest.(check int) "result" 7 r;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Obs.roots ()))

let test_trace_json () =
  with_collection (fun () ->
      Obs.with_span ~cat:"test" ~args:[ ("k", Json.Int 3) ] "outer" (fun () ->
          Obs.with_span "inner" (fun () -> ()));
      let s = Obs.trace_to_string () in
      let j =
        match Json.parse s with
        | Ok j -> j
        | Error e -> Alcotest.failf "trace does not parse: %s" e
      in
      let events =
        match Option.bind (Json.member "traceEvents" j) Json.to_list with
        | Some evs -> evs
        | None -> Alcotest.fail "no traceEvents array"
      in
      Alcotest.(check int) "one event per span" 2 (List.length events);
      List.iter
        (fun ev ->
          Alcotest.(check (option string))
            "complete-event phase" (Some "X")
            (Option.bind (Json.member "ph" ev) Json.to_str);
          List.iter
            (fun key ->
              if Json.member key ev = None then
                Alcotest.failf "event missing %S" key)
            [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
        events;
      let outer = List.hd events in
      Alcotest.(check (option string)) "cat preserved" (Some "test")
        (Option.bind (Json.member "cat" outer) Json.to_str);
      match Option.bind (Json.member "args" outer) (Json.member "k") with
      | Some (Json.Int 3) -> ()
      | _ -> Alcotest.fail "span args lost in trace")

(* End-to-end, on one product of each kind: a dcir SDFG (state and
   tasklet rows), a dace SDFG whose opaque tasklets run MLIR bodies
   (func rows too) and a gcc MLIR module (func rows). Per-state cycle
   attribution must partition the run's total cycle count (the
   acceptance criterion for [dcir run --profile]), and a profiled run
   must be bit-identical to an unprofiled run on the compiled tier. *)
let test_profile_partitions_cycles () =
  let src =
    {|
double kern(double x[32], int n) {
  double s = 0.0;
  for (int i = 0; i < n; i++)
    s += x[i] * 2.0;
  return s;
}
|}
  in
  let args =
    [
      Pipelines.AFloatArr (Array.init 32 float_of_int, [| 32 |]);
      Pipelines.AInt 32;
    ]
  in
  List.iter
    (fun (kind, kinds) ->
      let name = Pipelines.kind_name kind in
      let compiled = Pipelines.compile kind ~src ~entry:"kern" in
      let plain = Pipelines.run compiled ~entry:"kern" args in
      let profile = Obs.Profile.create () in
      let r = Pipelines.run ~profile compiled ~entry:"kern" args in
      Alcotest.(check (option string))
        (name ^ ": profiled run bit-identical to the compiled run") None
        (Pipelines.bitwise_divergence ~what:"profiled and compiled runs" r
           plain);
      Alcotest.(check (list string))
        (name ^ ": profile kinds") kinds (Obs.Profile.kinds profile);
      if List.mem "state" kinds then
        Alcotest.(check (float 1e-6))
          (name ^ ": states partition total cycles")
          r.metrics.cycles
          (Obs.Profile.total_cycles profile ~kind:"state");
      List.iter
        (fun k ->
          Alcotest.(check bool)
            (name ^ ": some " ^ k ^ " cycles attributed")
            true
            (Obs.Profile.total_cycles profile ~kind:k > 0.0);
          List.iter
            (fun (_, (e : Obs.Profile.entry)) ->
              Alcotest.(check bool) "positive hit counts" true (e.hits > 0))
            (Obs.Profile.entries profile ~kind:k))
        kinds)
    [
      (Pipelines.Dcir, [ "state"; "tasklet" ]);
      (Pipelines.Dace, [ "func"; "state"; "tasklet" ]);
      (Pipelines.Gcc, [ "func" ]);
    ]

let suite =
  ( "obs",
    [
      Alcotest.test_case "span nesting" `Quick test_span_nesting;
      Alcotest.test_case "span exception safety" `Quick
        test_span_exception_safety;
      Alcotest.test_case "worker-domain spans are dropped" `Quick
        test_worker_domain_spans_dropped;
      Alcotest.test_case "disabled collector is passthrough" `Quick
        test_disabled_is_passthrough;
      Alcotest.test_case "trace_event JSON well-formed" `Quick test_trace_json;
      Alcotest.test_case "profile partitions cycles" `Quick
        test_profile_partitions_cycles;
    ] )
