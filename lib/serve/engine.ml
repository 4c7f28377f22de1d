(** The serving engine: deterministic batch request processing.

    [run] takes a parsed request batch and drives every request through
    admission control, the bounded queue, and the resilient compilation
    pipeline, producing a {!Sjournal} response journal. The engine is a
    pure function of (requests, config, seed): no wall clocks, no host
    randomness — deadlines are budget-step clocks, backoff is queue
    position, breaker cooldown is round counts — so the same batch under
    the same config yields a byte-identical journal.

    Request lifecycle:

    - {b admission}: malformed requests and unknown workloads are
      rejected ([SRV-REJECT]); the rest enter the bounded queue
      ([SRV-ADMIT]), shedding deterministically when full ([SRV-SHED],
      lowest priority then oldest — the incoming request included).
    - {b dequeue checks}: an open tenant breaker rejects fast
      ([SRV-REJECT] reason [breaker-open], aging the breaker toward
      probation); an exhausted tenant quota rejects ([quota-exhausted]);
      an expired budget-step deadline fails the request
      ([SRV-DEADLINE]).
    - {b attempt}: one degradation-ladder rung
      ({!Dcir_core.Pipelines.compile_resilient} with [floor = tier]),
      plus execution for [run] requests, all charged to a budget carved
      from the tenant's remaining quota. Chaos faults, if configured,
      are armed per (request, attempt) — never from global state, so
      tenant histories stay independent.
    - {b outcome}: success journals [SRV-DONE] and feeds the tenant
      breaker a success; a retryable failure re-enters the queue at the
      next ladder tier with exponential-backoff insertion depth
      ([SRV-RETRY]); a terminal failure journals [SRV-FAIL] and feeds
      the breaker (frontend rejections — poison requests — are never
      retried). Breaker transitions surface as [SRV-BRK-*] entries. *)

module Json = Dcir_obs.Json
module Pipelines = Dcir_core.Pipelines
module Budget = Dcir_resilience.Budget
module Breaker = Dcir_resilience.Breaker
module Chaos = Dcir_resilience.Chaos
module Diag = Dcir_support.Diagnostics

type config = {
  cfg_seed : int;  (** recorded in the journal header *)
  cfg_queue : int;  (** admission queue capacity *)
  cfg_limits : Budget.limits;  (** per-tenant quota across requests *)
  cfg_breaker : Breaker.config;  (** per-tenant breaker thresholds *)
  cfg_retries : int;  (** default retry bound per request *)
  cfg_deadline : int option;  (** default budget-step deadline *)
  cfg_chaos : (id:string -> attempt:int -> Chaos.plan option) option;
      (** fault plans keyed by (request, attempt) — deterministic and
          position-independent, preserving tenant isolation *)
  cfg_interp : Pipelines.interp_mode;  (** execution tier for run requests *)
  cfg_workers : int;
      (** worker domains; 1 = in-process sequential drain. Any N
          produces the same journal entries and responses as N = 1 — the
          worker count itself is recorded in the config header so
          journals are self-describing. *)
  cfg_watchdog : int option;
      (** budget-step watchdog: caps any single attempt's step spend
          below the tenant's remaining quota, so one runaway request
          cannot monopolize a worker. Deterministic — a step count, not
          a wall clock; a tripped watchdog journals
          [SRV-WORKER-WATCHDOG] and re-enters the retry ladder. *)
}

let default_config : config =
  {
    cfg_seed = 0;
    cfg_queue = 64;
    cfg_limits = Budget.default;
    cfg_breaker = Breaker.default_config;
    cfg_retries = 2;
    cfg_deadline = None;
    cfg_chaos = None;
    cfg_interp = `Compiled;
    cfg_workers = 1;
    cfg_watchdog = None;
  }

let config_fields (c : config) : (string * Json.t) list =
  [
    ("queue", Json.Int c.cfg_queue);
    ("tenant_steps", Json.Int c.cfg_limits.Budget.max_steps);
    ("tenant_fuel", Json.Int c.cfg_limits.Budget.max_fuel);
    ("tenant_allocs", Json.Int c.cfg_limits.Budget.max_allocs);
    ("trip_after", Json.Int c.cfg_breaker.Breaker.trip_after);
    ("cooldown", Json.Int c.cfg_breaker.Breaker.cooldown_rounds);
    ("probation", Json.Int c.cfg_breaker.Breaker.probation_successes);
    ("retries", Json.Int c.cfg_retries);
    ( "deadline",
      match c.cfg_deadline with Some d -> Json.Int d | None -> Json.Null );
    ( "interp",
      Json.Str
        (match c.cfg_interp with `Tree -> "tree" | `Compiled -> "compiled") );
    ("workers", Json.Int c.cfg_workers);
    ( "watchdog",
      match c.cfg_watchdog with Some w -> Json.Int w | None -> Json.Null );
  ]

type report = {
  rp_seed : int;
  rp_config : (string * Json.t) list;
  rp_journal : Sjournal.t;
  rp_responses : Sjournal.response list;  (** completion order *)
  rp_results : (string * Pipelines.run_result) list;
      (** request id -> in-memory result for successful [run] requests —
          not serialized; the chaos campaign's correctness oracle *)
  rp_plan_cache : (string * Json.t) list;
      (** always [[]]: compiled runs lower their own SDFG, so there is no
          program store to count. The field stays because the cost
          ledger still looks store counts up in it by name; they read 0. *)
  rp_placements : (string * int * int) list;
      (** (request id, attempt, worker domain) per pool execution,
          sorted — not serialized (domain choice is scheduling, not a
          decision); the crash-isolation tests' retry-placement oracle *)
  rp_coalesced : int;
      (** same-digest compilations coalesced by the pool (0 sequential) *)
}

let to_json (r : report) : Json.t =
  Sjournal.to_json ~seed:r.rp_seed ~config:r.rp_config
    ~responses:r.rp_responses r.rp_journal

(** [to_json] minus the self-describing ["workers"] config field: the
    engine's determinism contract is that every worker count produces
    this document byte-identically. *)
let replay_json (r : report) : Json.t =
  Sjournal.to_json ~seed:r.rp_seed
    ~config:(List.remove_assoc "workers" r.rp_config)
    ~responses:r.rp_responses r.rp_journal

let write (r : report) (path : string) : unit =
  Sjournal.write ~seed:r.rp_seed ~config:r.rp_config
    ~responses:r.rp_responses r.rp_journal path

(* ---- internals --------------------------------------------------- *)

(* One queued unit of work; [jb_tier] escalates down the ladder across
   retries, [jb_attempts] counts attempts consumed. *)
type job = {
  jb_rq : Request.t;
  jb_src : string;
  jb_entry : string option;  (* None: derive from source at attempt time *)
  jb_args : (unit -> Pipelines.arg list) option;  (* workload-provided *)
  mutable jb_tier : Pipelines.tier;
  mutable jb_attempts : int;
}

let workloads : Dcir_workloads.Workload.t list Lazy.t =
  lazy Dcir_workloads.(Polybench.all @ Case_studies.all)

let find_workload (name : string) : Dcir_workloads.Workload.t option =
  List.find_opt
    (fun (w : Dcir_workloads.Workload.t) -> w.name = name)
    (Lazy.force workloads)

let artifact_digest (c : Pipelines.compiled) : string =
  Dcir_support.Digest.of_string
    (match c with
    | Pipelines.CSdfg sdfg -> Dcir_sdfg.Printer.to_string sdfg
    | Pipelines.CMlir m -> Dcir_mlir.Printer.module_to_string m)

(* Everything one dequeue step decides, as data: the journal entries it
   would record (in order), the response it would return, and whether it
   re-enters the retry queue. Computing the step this way lets a worker
   domain run it speculatively while the supervisor — or the sequential
   drain, which shares the same commit function — applies the effects in
   commit order. *)
type step_fx = {
  fx_entries : (string * (string * Json.t) list) list;
  fx_response : Sjournal.response option;
  fx_result : Pipelines.run_result option;
  fx_retry : (string * Json.t) list option;
      (* [SRV-RETRY] fields minus the backoff depth, which only the
         commit-time queue can compute *)
}

(* A compilation shared by same-source requests within one pool batch:
   the artifact, its resilience report, and the budget spend of the
   compile — waiters are charged the recorded spend ("as if compiled"),
   so quotas and deadlines advance exactly as without coalescing. *)
type coalesced = {
  co_compiled : Pipelines.compiled;
  co_report : Pipelines.resilience_report;
  co_steps : int;
  co_fuel : int;
  co_allocs : int;
}

let run ?(config = default_config) (requests : (Request.t, Request.rejected) result list)
    : report =
  let journal = Dcir_obs.Events.create () in
  let tenants : (string, Tenant.t) Hashtbl.t = Hashtbl.create 8 in
  let tenant_of (name : string) : Tenant.t =
    match Hashtbl.find_opt tenants name with
    | Some t -> t
    | None ->
        let t =
          Tenant.create ~name ~limits:config.cfg_limits
            ~breaker:config.cfg_breaker
        in
        Hashtbl.replace tenants name t;
        t
  in
  let queue : job Admission.t = Admission.create ~capacity:config.cfg_queue in
  let rev_responses : Sjournal.response list ref = ref [] in
  let results : (string * Pipelines.run_result) list ref = ref [] in
  let respond (r : Sjournal.response) : unit =
    rev_responses := r :: !rev_responses
  in
  let mk_reject ~id ~tenant ~code ~attempts : Sjournal.response =
    {
      Sjournal.rs_id = id;
      rs_tenant = tenant;
      rs_status = Sjournal.Rejected;
      rs_code = code;
      rs_tier = None;
      rs_attempts = attempts;
      rs_cycles = None;
      rs_loads = None;
      rs_stores = None;
      rs_return = None;
      rs_digest = None;
    }
  in
  let mk_failed ~id ~tenant ~code ~attempts : Sjournal.response =
    { (mk_reject ~id ~tenant ~code ~attempts) with rs_status = Sjournal.Failed }
  in
  let reject_response ~id ~tenant ~code ~attempts =
    respond (mk_reject ~id ~tenant ~code ~attempts)
  in

  (* ---- admission phase ------------------------------------------- *)
  List.iter
    (fun parsed ->
      match parsed with
      | Error { Request.rej_id; rej_tenant; rej_reason } ->
          Sjournal.record journal ~code:"SRV-REJECT"
            [
              ("id", Json.Str rej_id);
              ("tenant", Json.Str rej_tenant);
              ("reason", Json.Str rej_reason);
            ];
          reject_response ~id:rej_id ~tenant:rej_tenant ~code:rej_reason
            ~attempts:0
      | Ok rq -> (
          let mk_job ~src ~entry ~args =
            {
              jb_rq = rq;
              jb_src = src;
              jb_entry = entry;
              jb_args = args;
              jb_tier = rq.Request.rq_tier;
              jb_attempts = 0;
            }
          in
          let job =
            match rq.Request.rq_source with
            | Request.Inline { src; entry } ->
                Ok (mk_job ~src ~entry ~args:None)
            | Request.Workload name -> (
                match find_workload name with
                | Some w ->
                    Ok
                      (mk_job ~src:w.src ~entry:(Some w.entry)
                         ~args:(Some w.args))
                | None -> Error ("unknown-workload: " ^ name))
          in
          match job with
          | Error reason ->
              Sjournal.record journal ~code:"SRV-REJECT"
                [
                  ("id", Json.Str rq.Request.rq_id);
                  ("tenant", Json.Str rq.Request.rq_tenant);
                  ("reason", Json.Str reason);
                ];
              reject_response ~id:rq.Request.rq_id
                ~tenant:rq.Request.rq_tenant ~code:reason ~attempts:0
          | Ok job -> (
              let shed (victim : job Admission.entry) =
                let v = victim.Admission.qe_item.jb_rq in
                Sjournal.record journal ~code:"SRV-SHED"
                  [
                    ("id", Json.Str v.Request.rq_id);
                    ("tenant", Json.Str v.Request.rq_tenant);
                    ("reason", Json.Str "queue-full");
                    ("priority", Json.Int victim.Admission.qe_priority);
                  ];
                reject_response ~id:v.Request.rq_id
                  ~tenant:v.Request.rq_tenant ~code:"shed:queue-full"
                  ~attempts:victim.Admission.qe_item.jb_attempts
              in
              let admitted () =
                Sjournal.record journal ~code:"SRV-ADMIT"
                  [
                    ("id", Json.Str rq.Request.rq_id);
                    ("tenant", Json.Str rq.Request.rq_tenant);
                    ("op", Json.Str (Request.op_name rq.Request.rq_op));
                    ("tier", Json.Str (Pipelines.tier_name rq.Request.rq_tier));
                    ("priority", Json.Int rq.Request.rq_priority);
                  ]
              in
              match
                Admission.admit queue ~priority:rq.Request.rq_priority job
              with
              | Admission.Admitted -> admitted ()
              | Admission.Shed_incoming ->
                  Sjournal.record journal ~code:"SRV-SHED"
                    [
                      ("id", Json.Str rq.Request.rq_id);
                      ("tenant", Json.Str rq.Request.rq_tenant);
                      ("reason", Json.Str "queue-full");
                      ("priority", Json.Int rq.Request.rq_priority);
                    ];
                  reject_response ~id:rq.Request.rq_id
                    ~tenant:rq.Request.rq_tenant ~code:"shed:queue-full"
                    ~attempts:0
              | Admission.Shed victim ->
                  shed victim;
                  admitted ())))
    requests;

  (* ---- drain phase ------------------------------------------------ *)
  let use_pool = config.cfg_workers > 1 in
  let memo_mutex = Mutex.create () in
  let memo : (string, coalesced) Hashtbl.t = Hashtbl.create 16 in
  let coalesced_count = Atomic.make 0 in
  (* The degradation-ladder compile for one attempt; in pool mode,
     chaos-free compiles of the same (kind, tier, entry, source) are
     coalesced: the first worker to finish records the artifact and its
     budget spend, and later attempts whose budget ceilings admit that
     spend reuse it, charged as if they had compiled it themselves. A
     recorded compile must be clean (no ladder degradations): a degraded
     trajectory depends on the ceiling it hit, so it is never shared. *)
  let compile_attempt ~(coalesce : bool) (job : job) ~(kind : Pipelines.kind)
      ~(entry_name : string) (budget : Budget.t) :
      Pipelines.compiled * Pipelines.resilience_report =
    let plain () =
      Pipelines.compile_resilient ~tier:job.jb_tier ~floor:job.jb_tier ~budget
        kind ~src:job.jb_src ~entry:entry_name
    in
    if not coalesce then plain ()
    else begin
      let key =
        String.concat "\x00"
          [
            Pipelines.kind_name kind;
            Pipelines.tier_name job.jb_tier;
            entry_name;
            job.jb_src;
          ]
      in
      let cached = Mutex.protect memo_mutex (fun () -> Hashtbl.find_opt memo key) in
      match cached with
      | Some c
        when c.co_steps <= budget.Budget.limits.Budget.max_steps
             && c.co_fuel <= budget.Budget.limits.Budget.max_fuel
             && c.co_allocs <= budget.Budget.limits.Budget.max_allocs ->
          Atomic.incr coalesced_count;
          budget.Budget.steps <- c.co_steps;
          budget.Budget.fuel <- c.co_fuel;
          budget.Budget.allocs <- c.co_allocs;
          (c.co_compiled, c.co_report)
      | _ ->
          let compiled, report = plain () in
          if report.Pipelines.res_degradations = [] then
            Mutex.protect memo_mutex (fun () ->
                if not (Hashtbl.mem memo key) then
                  Hashtbl.replace memo key
                    {
                      co_compiled = compiled;
                      co_report = report;
                      co_steps = budget.Budget.steps;
                      co_fuel = budget.Budget.fuel;
                      co_allocs = budget.Budget.allocs;
                    });
          (compiled, report)
    end
  in
  (* One dequeue step as an effect record. Mutates only the entry's job
     and its tenant — the pool's one-in-flight-per-tenant dispatch rule
     makes that safe on a worker domain, because every earlier step of
     the tenant is already committed. *)
  let process_step (entry : job Admission.entry) : step_fx =
    let job = entry.Admission.qe_item in
    let rq = job.jb_rq in
    let id = rq.Request.rq_id and tn_name = rq.Request.rq_tenant in
    let tenant = tenant_of tn_name in
    let rev_entries : (string * (string * Json.t) list) list ref = ref [] in
    let add code fields = rev_entries := (code, fields) :: !rev_entries in
    (* Surface a breaker transition as its SRV-BRK-* journal entry. *)
    let breaker_transition (before : string) (after : string) : unit =
      if before <> after then
        let code =
          match after with
          | "open" -> "SRV-BRK-OPEN"
          | "probation" -> "SRV-BRK-PROBATION"
          | _ -> "SRV-BRK-CLOSE"
        in
        add code
          [
            ("tenant", Json.Str tn_name);
            ("from", Json.Str before);
            ("to", Json.Str after);
          ]
    in
    let fin ?response ?result ?retry () : step_fx =
      {
        fx_entries = List.rev !rev_entries;
        fx_response = response;
        fx_result = result;
        fx_retry = retry;
      }
    in
    let deadline =
      match rq.Request.rq_deadline with
      | Some d -> Some d
      | None -> config.cfg_deadline
    in
    if not (Tenant.admits tenant) then begin
      add "SRV-REJECT"
        [
          ("id", Json.Str id);
          ("tenant", Json.Str tn_name);
          ("reason", Json.Str "breaker-open");
        ];
      let response =
        mk_reject ~id ~tenant:tn_name ~code:"breaker-open"
          ~attempts:job.jb_attempts
      in
      (* Fast rejections still age the breaker, else the tenant never
         reaches probation. *)
      let before, after = Tenant.age tenant in
      breaker_transition before after;
      fin ~response ()
    end
    else if Tenant.exhausted tenant then begin
      add "SRV-REJECT"
        [
          ("id", Json.Str id);
          ("tenant", Json.Str tn_name);
          ("reason", Json.Str "quota-exhausted");
        ];
      fin
        ~response:
          (mk_reject ~id ~tenant:tn_name ~code:"quota-exhausted"
             ~attempts:job.jb_attempts)
        ()
    end
    else
      match deadline with
      | Some d when Tenant.spend tenant > d ->
          add "SRV-DEADLINE"
            [
              ("id", Json.Str id);
              ("tenant", Json.Str tn_name);
              ("reason", Json.Str "deadline-expired");
              ("deadline", Json.Int d);
              ("spend", Json.Int (Tenant.spend tenant));
            ];
          fin
            ~response:
              (mk_failed ~id ~tenant:tn_name ~code:"deadline-expired"
                 ~attempts:job.jb_attempts)
            ()
      | _ -> (
          job.jb_attempts <- job.jb_attempts + 1;
          let armed_plan =
            match config.cfg_chaos with
            | None -> None
            | Some f -> f ~id ~attempt:job.jb_attempts
          in
          (match armed_plan with Some p -> Chaos.install p | None -> ());
          (* Arm before carving the budget: fuel starvation applies to
             this attempt's ceiling. The watchdog clamps the step
             ceiling below the tenant's remaining quota, bounding any
             single attempt's progress deterministically. *)
          let limits = Tenant.remaining tenant in
          let fuel = Chaos.fuel_limit ~default:limits.Budget.max_fuel in
          let steps_cap, watchdog_bound =
            match config.cfg_watchdog with
            | Some w when w < limits.Budget.max_steps -> (w, true)
            | _ -> (limits.Budget.max_steps, false)
          in
          let budget =
            Budget.create
              ~limits:
                { Budget.max_steps = steps_cap; max_fuel = fuel;
                  max_allocs = limits.Budget.max_allocs }
              ()
          in
          let outcome =
            match
              Fun.protect
                ~finally:(fun () ->
                  if Option.is_some armed_plan then Chaos.clear ())
                (fun () ->
                  (match Chaos.worker_kill_at () with
                  | Some 0 ->
                      raise (Chaos.Injected (Chaos.Worker_kill, "pre-compile"))
                  | _ -> ());
                  let entry_name = Synth.resolve_entry job.jb_src job.jb_entry in
                  let compiled, report =
                    compile_attempt
                      ~coalesce:(use_pool && Option.is_none armed_plan)
                      job ~kind:rq.Request.rq_kind ~entry_name budget
                  in
                  (match Chaos.worker_kill_at () with
                  | Some n when n > 0 ->
                      raise (Chaos.Injected (Chaos.Worker_kill, "post-compile"))
                  | _ -> ());
                  match rq.Request.rq_op with
                  | Request.Compile ->
                      (report, None, Some (artifact_digest compiled))
                  | Request.Run ->
                      let args =
                        match job.jb_args with
                        | Some f -> f ()
                        | None ->
                            Synth.args job.jb_src entry_name
                              ~size:rq.Request.rq_size
                      in
                      let result =
                        Pipelines.run ~budget ~interp_mode:config.cfg_interp
                          compiled ~entry:entry_name args
                      in
                      (report, Some result, None))
            with
            | v -> Ok v
            | exception e -> Error e
          in
          Tenant.charge tenant budget;
          (* A poisoned attempt reports success with a corrupted result
             envelope; the commit path discards it and retries, exactly
             like a crash. *)
          let outcome =
            match outcome with
            | Ok _
              when (match armed_plan with
                   | Some p -> p.Chaos.poison
                   | None -> false) ->
                add "SRV-WORKER-POISON"
                  [
                    ("id", Json.Str id);
                    ("tenant", Json.Str tn_name);
                    ("attempt", Json.Int job.jb_attempts);
                  ];
                Error (Chaos.Injected (Chaos.Poison_result, "result-envelope"))
            | o -> o
          in
          match outcome with
          | Ok (report, result, digest) ->
              let landed = Pipelines.tier_name report.Pipelines.res_landed in
              add "SRV-DONE"
                [
                  ("id", Json.Str id);
                  ("tenant", Json.Str tn_name);
                  ("tier", Json.Str landed);
                  ("attempts", Json.Int job.jb_attempts);
                ];
              let before, after = Tenant.record_outcome tenant ~ok:true in
              breaker_transition before after;
              fin
                ~response:
                  {
                    Sjournal.rs_id = id;
                    rs_tenant = tn_name;
                    rs_status = Sjournal.Done;
                    rs_code = "ok";
                    rs_tier = Some landed;
                    rs_attempts = job.jb_attempts;
                    rs_cycles =
                      Option.map
                        (fun (r : Pipelines.run_result) ->
                          r.Pipelines.metrics.Dcir_machine.Metrics.cycles)
                        result;
                    rs_loads =
                      Option.map
                        (fun (r : Pipelines.run_result) ->
                          r.Pipelines.metrics.Dcir_machine.Metrics.loads)
                        result;
                    rs_stores =
                      Option.map
                        (fun (r : Pipelines.run_result) ->
                          r.Pipelines.metrics.Dcir_machine.Metrics.stores)
                        result;
                    rs_return =
                      Option.bind result (fun (r : Pipelines.run_result) ->
                          Option.map Dcir_machine.Value.to_string
                            r.Pipelines.return_value);
                    rs_digest = digest;
                  }
                ?result ()
          | Error e ->
              (* Worker-incident attribution precedes the retry/fail
                 record, so every injected kill and tripped watchdog is
                 traceable to its request and attempt. *)
              (match e with
              | Chaos.Injected (Chaos.Worker_kill, site) ->
                  add "SRV-WORKER-KILL"
                    [
                      ("id", Json.Str id);
                      ("tenant", Json.Str tn_name);
                      ("attempt", Json.Int job.jb_attempts);
                      ("site", Json.Str site);
                    ]
              | Budget.Exhausted (Budget.Steps, _) when watchdog_bound ->
                  add "SRV-WORKER-WATCHDOG"
                    [
                      ("id", Json.Str id);
                      ("tenant", Json.Str tn_name);
                      ("attempt", Json.Int job.jb_attempts);
                      ("limit", Json.Int steps_cap);
                    ]
              | _ -> ());
              let code = Pipelines.classify_exn e in
              let retries =
                match rq.Request.rq_retries with
                | Some r -> r
                | None -> config.cfg_retries
              in
              (* Frontend rejections — poison requests — are never
                 retried: the input is invalid, and no amount of tier
                 degradation or backoff changes that. *)
              let retry =
                match e with
                | Diag.Error { phase = Diag.Frontend; _ } -> false
                | _ -> job.jb_attempts <= retries
              in
              if retry then begin
                let next =
                  match Pipelines.next_tier job.jb_tier with
                  | Some t -> t
                  | None -> job.jb_tier
                in
                job.jb_tier <- next;
                fin
                  ~retry:
                    [
                      ("id", Json.Str id);
                      ("tenant", Json.Str tn_name);
                      ("reason", Json.Str code);
                      ("tier", Json.Str (Pipelines.tier_name next));
                      ("attempt", Json.Int job.jb_attempts);
                    ]
                  ()
              end
              else begin
                add "SRV-FAIL"
                  [
                    ("id", Json.Str id);
                    ("tenant", Json.Str tn_name);
                    ("reason", Json.Str code);
                    ("attempts", Json.Int job.jb_attempts);
                  ];
                let before, after = Tenant.record_outcome tenant ~ok:false in
                breaker_transition before after;
                fin
                  ~response:
                    (mk_failed ~id ~tenant:tn_name ~code
                       ~attempts:job.jb_attempts)
                  ()
              end)
  in
  (* Apply one step's effects: append the journal entries, re-insert on
     retry (the backoff depth is a function of the committed queue, so
     only commit can compute it), then the result and response. Both
     drains share this function — the journal is the same bytes either
     way. *)
  let commit (entry : job Admission.entry) (fx : step_fx) : unit =
    List.iter
      (fun (code, fields) -> Sjournal.record journal ~code fields)
      fx.fx_entries;
    (match fx.fx_retry with
    | Some fields ->
        let job = entry.Admission.qe_item in
        let tn = job.jb_rq.Request.rq_tenant in
        let depth =
          Admission.reinsert queue entry ~attempt:job.jb_attempts
            ~same:(fun (j : job) -> j.jb_rq.Request.rq_tenant = tn)
        in
        Sjournal.record journal ~code:"SRV-RETRY"
          (fields @ [ ("depth", Json.Int depth) ])
    | None -> ());
    (match fx.fx_result with
    | Some r ->
        results := (entry.Admission.qe_item.jb_rq.Request.rq_id, r) :: !results
    | None -> ());
    match fx.fx_response with Some r -> respond r | None -> ()
  in
  let placements : (string * int * int) list ref = ref [] in
  let placements_mutex = Mutex.create () in
  if use_pool then begin
    (* Pre-create every tenant on the supervisor: worker domains only
       read the table. *)
    List.iter
      (fun (e : job Admission.entry) ->
        ignore (tenant_of e.Admission.qe_item.jb_rq.Request.rq_tenant))
      queue.Admission.entries;
    Pool.drain ~workers:config.cfg_workers ~queue
      ~group_of:(fun (j : job) -> j.jb_rq.Request.rq_tenant)
      ~exec:(fun ~domain entry ->
        let fx = process_step entry in
        Mutex.protect placements_mutex (fun () ->
            placements :=
              ( entry.Admission.qe_item.jb_rq.Request.rq_id,
                entry.Admission.qe_item.jb_attempts,
                domain )
              :: !placements);
        fx)
      ~crash:(fun entry e ->
        (* Defensive: [process_step] catches attempt failures itself, so
           this only fires if the step machinery raises. Journal the
           incident and fail the request terminally rather than losing
           the batch. *)
        let job = entry.Admission.qe_item in
        let id = job.jb_rq.Request.rq_id
        and tn = job.jb_rq.Request.rq_tenant in
        let code = Pipelines.classify_exn e in
        {
          fx_entries =
            [
              ( "SRV-WORKER-CRASH",
                [
                  ("id", Json.Str id);
                  ("tenant", Json.Str tn);
                  ("attempt", Json.Int job.jb_attempts);
                  ("reason", Json.Str code);
                ] );
            ];
          fx_response =
            Some
              (mk_failed ~id ~tenant:tn ~code:("worker-crash:" ^ code)
                 ~attempts:job.jb_attempts);
          fx_result = None;
          fx_retry = None;
        })
      ~commit:(fun entry fx ->
        commit entry fx;
        Option.is_some fx.fx_retry)
  end
  else begin
    let rec drain () =
      match Admission.pop queue with
      | None -> ()
      | Some entry ->
          commit entry (process_step entry);
          drain ()
    in
    drain ()
  end;
  {
    rp_seed = config.cfg_seed;
    rp_config = config_fields config;
    rp_journal = journal;
    rp_responses = List.rev !rev_responses;
    rp_results = List.rev !results;
    rp_plan_cache = [];
    rp_placements = List.sort compare !placements;
    rp_coalesced = Atomic.get coalesced_count;
  }
