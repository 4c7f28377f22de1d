(** The serving layer: content digests, the admission queue, and the
    batch engine itself. The invariants under test are the serving
    contract: a digest depends only on the printed product, not on what
    the process compiled before it; recompiling and rerunning a program
    is invisible in outputs and metrics; a tenant's responses are
    byte-identical whether it shares the engine with a noisy neighbor or
    runs alone; and the whole journal replays byte-for-byte from its
    seed. *)

module Cdigest = Dcir_support.Digest
module Pipelines = Dcir_core.Pipelines
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker
module Chaos = Dcir_resilience.Chaos
module Json = Dcir_obs.Json
module Request = Dcir_serve.Request
module Admission = Dcir_serve.Admission
module Engine = Dcir_serve.Engine
module Sjournal = Dcir_serve.Sjournal

(* ------------------------------------------------------------------ *)
(* Digests *)

let test_digest_stability () =
  (* Pinned vectors: the digest is part of the journal format, so a
     silent change to the hash is a format break, not a refactor. *)
  Alcotest.(check string)
    "empty" "f52a15e9a9b5e89be220a8397b1dcdaf"
    (Cdigest.of_string "");
  Alcotest.(check string)
    "abc" "0dd490490804b508351d88a9dce78d10"
    (Cdigest.of_string "abc");
  Alcotest.(check bool) "distinct inputs, distinct digests" true
    (Cdigest.of_string "abc" <> Cdigest.of_string "abd");
  Alcotest.(check int) "32 hex chars" 32
    (String.length (Cdigest.of_string "anything"))

(* Compiling the same source twice in one process must yield the same
   digest even though values and nodes carry process-wide ids: an SDFG
   product, and an MLIR product with nested loop regions. *)
let test_digest_position_independent () =
  let digest kind ~src ~entry =
    Engine.artifact_digest (Pipelines.compile kind ~src ~entry)
  in
  let dbl () =
    digest Pipelines.Dcir ~src:"int dbl(int n) { return n + n; }" ~entry:"dbl"
  in
  let corr () =
    let w = Dcir_workloads.Polybench.correlation in
    digest Pipelines.Gcc ~src:w.src ~entry:w.entry
  in
  let d1 = dbl () and c1 = corr () in
  (* An unrelated compile, then skip the value ids ahead to the next
     power of ten, so that every value minted from here on has an id one
     digit wider than those of the first products. *)
  ignore
    (Pipelines.compile Pipelines.Dcir
       ~src:"double tri(double x) { return x * 3.0; }" ~entry:"tri");
  let next = Atomic.get Dcir_mlir.Ir.value_counter in
  let rec pow10 p = if p > next then p else pow10 (10 * p) in
  ignore (Atomic.fetch_and_add Dcir_mlir.Ir.value_counter (pow10 1 - next));
  Alcotest.(check string) "SDFG digest survives process history" d1 (dbl ());
  Alcotest.(check string) "MLIR digest survives process history" c1 (corr ())

(* Compiling and running the same source twice gives bit-identical
   outputs and metrics: nothing a run leaves behind in the process
   changes the next one. *)
let test_rerun_identical () =
  let src =
    "double scale(double a[32], double s) { for (int i = 0; i < 32; i++) { \
     a[i] = a[i] * s; } return a[0]; }"
  in
  let args () =
    [
      Pipelines.AFloatArr (Array.init 32 (fun i -> float_of_int i *. 0.5), [| 32 |]);
      Pipelines.AFloat 3.0;
    ]
  in
  let go () =
    let compiled = Pipelines.compile Pipelines.Dcir ~src ~entry:"scale" in
    Pipelines.run compiled ~entry:"scale" (args ())
  in
  let first = go () in
  let again = go () in
  (* Bit-identical, not merely close: same program, same arithmetic. *)
  Alcotest.(check bool) "return values identical" true
    (first.Pipelines.return_value = again.Pipelines.return_value);
  Alcotest.(check bool) "outputs identical" true
    (first.Pipelines.outputs = again.Pipelines.outputs);
  let m1 = first.Pipelines.metrics and m2 = again.Pipelines.metrics in
  Alcotest.(check (float 0.0)) "cycles identical"
    m1.Dcir_machine.Metrics.cycles m2.Dcir_machine.Metrics.cycles;
  Alcotest.(check int) "loads identical" m1.Dcir_machine.Metrics.loads
    m2.Dcir_machine.Metrics.loads;
  Alcotest.(check int) "stores identical" m1.Dcir_machine.Metrics.stores
    m2.Dcir_machine.Metrics.stores

(* ------------------------------------------------------------------ *)
(* Admission queue *)

let test_admission_shed () =
  let q = Admission.create ~capacity:2 in
  Alcotest.(check bool) "admit 1" true
    (Admission.admit q ~priority:1 "a" = Admission.Admitted);
  Alcotest.(check bool) "admit 2" true
    (Admission.admit q ~priority:2 "b" = Admission.Admitted);
  (* Full queue, lower-priority incoming: shed on the spot. *)
  Alcotest.(check bool) "incoming victim" true
    (Admission.admit q ~priority:0 "c" = Admission.Shed_incoming);
  (* Full queue, higher-priority incoming: oldest lowest-priority queued
     entry is the victim. *)
  (match Admission.admit q ~priority:3 "d" with
  | Admission.Shed e -> Alcotest.(check string) "queued victim" "a" e.Admission.qe_item
  | _ -> Alcotest.fail "expected a queued shed");
  Alcotest.(check int) "still at capacity" 2 (Admission.length q)

let test_admission_backoff () =
  let q = Admission.create ~capacity:8 in
  List.iter
    (fun (p, x) -> ignore (Admission.admit q ~priority:p x))
    [ (0, "A1"); (0, "B1"); (0, "A2"); (0, "B2"); (0, "A3") ];
  let retry = { Admission.qe_order = 99; qe_priority = 0; qe_item = "Ax" } in
  let same x = x.[0] = 'A' in
  (* Attempt 1: behind 2^1 = 2 same-group entries — between A2 and A3,
     regardless of the interleaved B traffic. *)
  Alcotest.(check int) "depth counts own group only" 2
    (Admission.reinsert q retry ~attempt:1 ~same);
  let order = List.map (fun e -> e.Admission.qe_item) q.Admission.entries in
  Alcotest.(check (list string)) "insertion point"
    [ "A1"; "B1"; "A2"; "Ax"; "B2"; "A3" ]
    order;
  (* A huge attempt number lands at the very back, not in a 2^k loop. *)
  let q2 = Admission.create ~capacity:8 in
  ignore (Admission.admit q2 ~priority:0 "A1");
  Alcotest.(check int) "overshoot goes to the back" 1
    (Admission.reinsert q2 retry ~attempt:30 ~same)

(* ------------------------------------------------------------------ *)
(* The engine *)

let inline ~id ~tenant ?(op = Request.Run) ?deadline (src, entry) : Request.t =
  {
    Request.rq_id = id;
    rq_tenant = tenant;
    rq_op = op;
    rq_source = Request.Inline { src; entry = Some entry };
    rq_kind = Pipelines.Dcir;
    rq_tier = Pipelines.O2;
    rq_priority = 0;
    rq_deadline = deadline;
    rq_retries = None;
    rq_size = 8.0;
  }

let tiny = ("int ident(int n) { return n; }", "ident")

let heavy =
  ( "double sweep(double a[64][64]) { double s = 0.0; for (int i = 0; i < 64; \
     i++) { for (int j = 0; j < 64; j++) { a[i][j] = a[i][j] * 1.5 + s; s = s \
     + a[i][j]; } } return s; }",
    "sweep" )

let response_of (report : Engine.report) (id : string) : Sjournal.response =
  match
    List.find_opt
      (fun (r : Sjournal.response) -> r.Sjournal.rs_id = id)
      report.Engine.rp_responses
  with
  | Some r -> r
  | None -> Alcotest.fail ("no response for " ^ id)

(* Tenant A exhausts its quota and trips its breaker; tenant B's
   responses must be byte-identical to a B-only run — the noisy
   neighbor is invisible. *)
let test_tenant_isolation () =
  let requests =
    [
      inline ~id:"a1" ~tenant:"A" heavy;
      inline ~id:"b1" ~tenant:"B" tiny;
      inline ~id:"a2" ~tenant:"A" heavy;
      inline ~id:"b2" ~tenant:"B" tiny;
      inline ~id:"a3" ~tenant:"A" heavy;
    ]
  in
  let config =
    {
      Engine.default_config with
      (* Fuel covers B's trivial program but not A's loop nest: A's
         first attempt exhausts the quota and the failure trips the
         breaker (trip_after defaults to 1). *)
      Engine.cfg_limits =
        { Budget.max_steps = 2_000; max_fuel = 1_000_000; max_allocs = 100_000 };
      (* No retries: a1's budget failure is terminal, so the breaker
         trip and the later quota rejections are all visible. *)
      cfg_retries = 0;
    }
  in
  let multi = Engine.run ~config (List.map (fun r -> Ok r) requests) in
  (* A saw structured trouble: a budget failure, then rejections. *)
  let a1 = response_of multi "a1" in
  Alcotest.(check string) "a1 failed" "failed"
    (Sjournal.status_name a1.Sjournal.rs_status);
  Alcotest.(check bool) "a1 diagnosed with a budget code" true
    (String.length a1.Sjournal.rs_code >= 8
    && String.sub a1.Sjournal.rs_code 0 8 = "E-BUDGET");
  List.iter
    (fun id ->
      let r = response_of multi id in
      Alcotest.(check string) (id ^ " rejected") "rejected"
        (Sjournal.status_name r.Sjournal.rs_status);
      Alcotest.(check bool) (id ^ " reason is attributable") true
        (List.mem r.Sjournal.rs_code [ "breaker-open"; "quota-exhausted" ]))
    [ "a2"; "a3" ];
  (* B is untouched... *)
  List.iter
    (fun id ->
      Alcotest.(check string) (id ^ " ok") "ok"
        (Sjournal.status_name (response_of multi id).Sjournal.rs_status))
    [ "b1"; "b2" ];
  (* ...and byte-identical to a world where A never existed. *)
  let solo =
    Engine.run ~config
      (List.filter_map
         (fun (r : Request.t) ->
           if r.Request.rq_tenant = "B" then Some (Ok r) else None)
         requests)
  in
  Alcotest.(check (list string)) "B's responses identical"
    (Sjournal.responses_for_tenant solo.Engine.rp_responses "B")
    (Sjournal.responses_for_tenant multi.Engine.rp_responses "B")

(* Deadlines are budget steps, not wall time: a tenant whose spend has
   passed a request's deadline gets a structured kill, deterministic on
   every replay. *)
let test_deadline () =
  let requests =
    [
      inline ~id:"warm" ~tenant:"T" heavy;
      inline ~id:"late" ~tenant:"T" ~deadline:1 tiny;
    ]
  in
  let report = Engine.run (List.map (fun r -> Ok r) requests) in
  let late = response_of report "late" in
  Alcotest.(check string) "deadline kill is a failure" "failed"
    (Sjournal.status_name late.Sjournal.rs_status);
  Alcotest.(check string) "with its own code" "deadline-expired"
    late.Sjournal.rs_code;
  Alcotest.(check int) "no attempt was burned" 0 late.Sjournal.rs_attempts

(* An entry the source does not define is the request's fault: it fails
   on its first attempt with the frontend's E-NO-ENTRY, on every
   pipeline, and is never retried into another tier. *)
let test_missing_entry () =
  let src, _ = tiny in
  let requests =
    [
      { (inline ~id:"g" ~tenant:"G" (src, "nope")) with
        Request.rq_kind = Pipelines.Gcc };
      inline ~id:"d" ~tenant:"D" (src, "nope");
    ]
  in
  let report = Engine.run (List.map (fun r -> Ok r) requests) in
  List.iter
    (fun id ->
      let r = response_of report id in
      Alcotest.(check string) (id ^ " failed") "failed"
        (Sjournal.status_name r.Sjournal.rs_status);
      Alcotest.(check string) (id ^ " code") "E-NO-ENTRY" r.Sjournal.rs_code;
      Alcotest.(check int) (id ^ " attempts") 1 r.Sjournal.rs_attempts)
    [ "g"; "d" ]

(* An omitted entry on a source that does not parse fails with the
   compile's own diagnostic, and is not retried. *)
let test_unparsable_without_entry () =
  let request =
    {
      (inline ~id:"p" ~tenant:"P" ("", "")) with
      Request.rq_source = Request.Inline { src = "int f("; entry = None };
    }
  in
  let r = response_of (Engine.run [ Ok request ]) "p" in
  Alcotest.(check string) "failed" "failed"
    (Sjournal.status_name r.Sjournal.rs_status);
  Alcotest.(check string) "code" "E-PARSE" r.Sjournal.rs_code;
  Alcotest.(check int) "attempts" 1 r.Sjournal.rs_attempts

(* Same requests, same config: the rendered journal must be
   byte-identical — cache state, counters and all. *)
let test_journal_double_run () =
  let requests =
    List.map
      (fun r -> Ok r)
      [
        inline ~id:"r1" ~tenant:"x" tiny;
        inline ~id:"r2" ~tenant:"y" heavy;
        inline ~id:"r3" ~tenant:"x" ~op:Request.Compile tiny;
      ]
  in
  let render () = Json.to_string (Engine.to_json (Engine.run requests)) in
  Alcotest.(check string) "byte-identical journals" (render ()) (render ())

(* Malformed batch entries are salvaged as structured rejections, never
   dropped, never fatal to their neighbors. *)
let test_request_salvage () =
  let text =
    {|{"schema":"dcir-serve-requests/1","requests":[
       {"id":"good","tenant":"t","op":"run",
        "source":{"inline":"int one(int n) { return 1; }","entry":"one"}},
       {"id":"bad","tenant":"t","op":"frobnicate",
        "source":{"inline":"int f(int n) { return n; }"}},
       {"id":"nosrc","tenant":"t","op":"run"}
     ]}|}
  in
  match Request.parse text with
  | Error e -> Alcotest.fail e
  | Ok items ->
      let ok, rejected = List.partition Result.is_ok items in
      Alcotest.(check int) "one good" 1 (List.length ok);
      Alcotest.(check int) "two salvaged" 2 (List.length rejected);
      List.iter
        (function
          | Error (r : Request.rejected) ->
              Alcotest.(check bool) "reason present" true
                (String.length r.Request.rej_reason > 0);
              Alcotest.(check bool) "identity salvaged" true
                (List.mem r.Request.rej_id [ "bad"; "nosrc" ])
          | Ok _ -> ())
        rejected

(* ------------------------------------------------------------------ *)
(* The worker pool *)

let replay_string (r : Engine.report) : string =
  Json.to_string (Engine.replay_json r)

let entries_with (report : Engine.report) (code : string) :
    (string * Json.t) list list =
  match Json.member "entries" (Engine.to_json report) with
  | Some (Json.List rows) ->
      List.filter_map
        (function
          | Json.Obj fields
            when List.assoc_opt "code" fields = Some (Json.Str code) ->
              Some fields
          | _ -> None)
        rows
  | _ -> Alcotest.fail "journal missing entries"

(* Adversarial completion order: a slow compile admitted first, quick
   ones behind it. Workers finish the quick ones while the slow one is
   still running; the supervisor must still commit — and therefore
   journal and respond — in admission order, byte-identically to the
   sequential engine. *)
let test_pool_commit_order () =
  let requests =
    List.map
      (fun r -> Ok r)
      [
        inline ~id:"a1" ~tenant:"A" heavy;
        inline ~id:"b1" ~tenant:"B" tiny;
        inline ~id:"c1" ~tenant:"C" tiny;
        inline ~id:"b2" ~tenant:"B" tiny;
        inline ~id:"a2" ~tenant:"A" heavy;
        inline ~id:"c2" ~tenant:"C" ~op:Request.Compile tiny;
      ]
  in
  let run workers =
    Engine.run
      ~config:{ Engine.default_config with Engine.cfg_workers = workers }
      requests
  in
  let w1 = run 1 and w4 = run 4 in
  Alcotest.(check string) "journal bytes agree (worker count aside)"
    (replay_string w1) (replay_string w4);
  Alcotest.(check (list string)) "responses in admission order"
    [ "a1"; "b1"; "c1"; "b2"; "a2"; "c2" ]
    (List.map
       (fun (r : Sjournal.response) -> r.Sjournal.rs_id)
       w4.Engine.rp_responses);
  Alcotest.(check bool) "pooled run recorded placements" true
    (w4.Engine.rp_placements <> []);
  Alcotest.(check bool) "sequential run has none" true
    (w1.Engine.rp_placements = [])

(* A chaos kill on attempt 1 is caught on the worker, journaled with
   the request it hit, and the retry lands on a different domain —
   crash isolation plus attribution. *)
let test_worker_crash_retry () =
  let requests = [ Ok (inline ~id:"victim" ~tenant:"T" tiny) ] in
  let chaos ~id ~attempt =
    if id = "victim" && attempt = 1 then
      Some (Chaos.arm_worker ~kill_at:1 (Chaos.no_faults ~seed:1))
    else None
  in
  let config =
    {
      Engine.default_config with
      Engine.cfg_workers = 4;
      cfg_chaos = Some chaos;
    }
  in
  let report = Engine.run ~config requests in
  let r = response_of report "victim" in
  Alcotest.(check string) "eventually ok" "ok"
    (Sjournal.status_name r.Sjournal.rs_status);
  Alcotest.(check int) "second attempt won" 2 r.Sjournal.rs_attempts;
  (match entries_with report "SRV-WORKER-KILL" with
  | [ fields ] ->
      Alcotest.(check bool) "kill names its request and tenant" true
        (List.assoc_opt "id" fields = Some (Json.Str "victim")
        && List.assoc_opt "tenant" fields = Some (Json.Str "T"))
  | kills ->
      Alcotest.fail
        (Printf.sprintf "expected one SRV-WORKER-KILL, found %d"
           (List.length kills)));
  (match
     List.filter (fun (id, _, _) -> id = "victim") report.Engine.rp_placements
   with
  | [ (_, 1, d1); (_, 2, d2) ] ->
      Alcotest.(check bool) "retry moved to another domain" true (d1 <> d2)
  | ps ->
      Alcotest.fail
        (Printf.sprintf "expected two placements for victim, found %d"
           (List.length ps)));
  (* The same batch under the sequential engine renders the same
     journal: the kill derives from (id, attempt), never from where or
     when the attempt ran. *)
  let sequential =
    Engine.run ~config:{ config with Engine.cfg_workers = 1 } requests
  in
  Alcotest.(check string) "kill is scheduling-independent"
    (replay_string sequential) (replay_string report)

(* Identical compile requests coalesce: the first worker's artifact is
   fanned to the rest, each charged as if it had compiled it itself.
   The journal is the sequential engine's, and every response carries
   the same artifact digest. *)
let test_pool_coalescing () =
  let requests =
    List.map
      (fun r -> Ok r)
      (List.init 4 (fun i ->
           inline
             ~id:(Printf.sprintf "c%d" i)
             ~tenant:"T" ~op:Request.Compile tiny))
  in
  let run workers =
    Engine.run
      ~config:{ Engine.default_config with Engine.cfg_workers = workers }
      requests
  in
  let w1 = run 1 in
  let w4 = run 4 in
  Alcotest.(check string) "journal bytes agree" (replay_string w1)
    (replay_string w4);
  Alcotest.(check int) "three of four compiles coalesced" 3
    w4.Engine.rp_coalesced;
  (match w4.Engine.rp_responses with
  | first :: rest ->
      Alcotest.(check bool) "digest present" true
        (first.Sjournal.rs_digest <> None);
      List.iter
        (fun (r : Sjournal.response) ->
          Alcotest.(check bool) "identical artifact digests" true
            (r.Sjournal.rs_digest = first.Sjournal.rs_digest))
        rest
  | [] -> Alcotest.fail "no responses")

(* The noisy-neighbor differential again, this time with four worker
   domains churning: tenant B's responses must still be byte-identical
   to a solo run. *)
let test_pool_tenant_isolation () =
  let requests =
    [
      inline ~id:"a1" ~tenant:"A" heavy;
      inline ~id:"b1" ~tenant:"B" tiny;
      inline ~id:"a2" ~tenant:"A" heavy;
      inline ~id:"b2" ~tenant:"B" tiny;
      inline ~id:"a3" ~tenant:"A" heavy;
    ]
  in
  let config =
    {
      Engine.default_config with
      Engine.cfg_workers = 4;
      cfg_limits =
        { Budget.max_steps = 2_000; max_fuel = 1_000_000; max_allocs = 100_000 };
      cfg_retries = 0;
    }
  in
  let multi = Engine.run ~config (List.map (fun r -> Ok r) requests) in
  let solo =
    Engine.run ~config
      (List.filter_map
         (fun (r : Request.t) ->
           if r.Request.rq_tenant = "B" then Some (Ok r) else None)
         requests)
  in
  Alcotest.(check (list string)) "B's responses identical under the pool"
    (Sjournal.responses_for_tenant solo.Engine.rp_responses "B")
    (Sjournal.responses_for_tenant multi.Engine.rp_responses "B")

(* The budget-step watchdog bounds a single attempt deterministically:
   no wall clock, so the same limit journals the same entry at any
   worker count. *)
let test_watchdog () =
  let requests = [ Ok (inline ~id:"w" ~tenant:"T" heavy) ] in
  let config =
    {
      Engine.default_config with
      Engine.cfg_watchdog = Some 100;
      cfg_retries = 0;
    }
  in
  let report = Engine.run ~config requests in
  let r = response_of report "w" in
  Alcotest.(check string) "watchdog stops the attempt" "failed"
    (Sjournal.status_name r.Sjournal.rs_status);
  (match entries_with report "SRV-WORKER-WATCHDOG" with
  | [ fields ] ->
      Alcotest.(check bool) "entry names request, tenant and limit" true
        (List.assoc_opt "id" fields = Some (Json.Str "w")
        && List.assoc_opt "tenant" fields = Some (Json.Str "T")
        && List.assoc_opt "limit" fields = Some (Json.Int 100))
  | wd ->
      Alcotest.fail
        (Printf.sprintf "expected one SRV-WORKER-WATCHDOG, found %d"
           (List.length wd)));
  let pooled =
    Engine.run ~config:{ config with Engine.cfg_workers = 4 } requests
  in
  Alcotest.(check string) "watchdog is worker-count-independent"
    (replay_string report) (replay_string pooled)

let suite =
  ( "serve",
    [
      Alcotest.test_case "digest stability" `Quick test_digest_stability;
      Alcotest.test_case "digest position independence" `Quick
        test_digest_position_independent;
      Alcotest.test_case "recompile + rerun is bit-identical" `Quick
        test_rerun_identical;
      Alcotest.test_case "admission shedding" `Quick test_admission_shed;
      Alcotest.test_case "retry backoff depth" `Quick test_admission_backoff;
      Alcotest.test_case "tenant isolation" `Quick test_tenant_isolation;
      Alcotest.test_case "budget-step deadlines" `Quick test_deadline;
      Alcotest.test_case "journal double-run identity" `Quick
        test_journal_double_run;
      Alcotest.test_case "malformed request salvage" `Quick
        test_request_salvage;
      Alcotest.test_case "pool commit-order determinism" `Quick
        test_pool_commit_order;
      Alcotest.test_case "worker crash retries elsewhere" `Quick
        test_worker_crash_retry;
      Alcotest.test_case "same-digest coalescing" `Quick test_pool_coalescing;
      Alcotest.test_case "tenant isolation under the pool" `Quick
        test_pool_tenant_isolation;
      Alcotest.test_case "budget-step watchdog" `Quick test_watchdog;
      Alcotest.test_case "unparsable source without an entry is E-PARSE"
        `Quick test_unparsable_without_entry;
      Alcotest.test_case "missing entry is not retried" `Quick
        test_missing_entry;
    ] )
