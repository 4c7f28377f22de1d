(** Tests for the execution substrate: cache behaviour, cost accounting,
    allocation, and memory-safety faults. *)

open Dcir_machine

let test_cache_lru () =
  (* 2-way, 2 sets, 16B lines: lines 0 and 2 map to set 0. *)
  let c = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  Alcotest.(check bool) "cold miss" false (Cache.access c 0);
  Alcotest.(check bool) "hit" true (Cache.access c 4);
  Alcotest.(check bool) "second line miss" false (Cache.access c 32);
  Alcotest.(check bool) "both resident" true (Cache.access c 0);
  (* Third line in set 0 evicts LRU (line 32, since 0 was just touched). *)
  Alcotest.(check bool) "evicting miss" false (Cache.access c 64);
  Alcotest.(check bool) "line 0 kept" true (Cache.access c 0);
  Alcotest.(check bool) "line 32 evicted" false (Cache.access c 32)

let test_cache_counters () =
  let c = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  ignore (Cache.access c 0);
  ignore (Cache.access c 0);
  Alcotest.(check int) "accesses" 2 c.accesses;
  Alcotest.(check int) "misses" 1 c.misses;
  Alcotest.(check (float 1e-9)) "rate" 0.5 (Cache.miss_rate c);
  Cache.reset c;
  Alcotest.(check int) "reset" 0 c.accesses

let test_cache_reset_lru () =
  (* A reset must forget the LRU stamps along with the tags: otherwise the
     2-way set below evicts the line it has just installed while its other
     way is still invalid, and the final access misses. *)
  let c = Cache.create ~name:"t" ~size_bytes:64 ~assoc:2 ~line_bytes:16 in
  let run () = List.map (Cache.access c) [ 0; 32; 0 ] in
  Alcotest.(check (list bool)) "cold" [ false; false; true ] (run ());
  Cache.reset c;
  Alcotest.(check (list bool)) "after reset" [ false; false; true ] (run ())

let test_cache_sets_power_of_two () =
  (* 3 lines, direct-mapped: 3 sets, which a mask cannot index. *)
  Alcotest.check_raises "3 sets"
    (Invalid_argument "Cache.create: t has 3 sets, not a power of two")
    (fun () ->
      ignore (Cache.create ~name:"t" ~size_bytes:48 ~assoc:1 ~line_bytes:16))

let test_machine_create_alloc () =
  (* The caches allocate a set on its first access: creating a machine
     (every run and every parallel-map chunk does) must not allocate the
     22 MiB L3's 360k tag and stamp slots up front. *)
  Gc.minor ();
  let before = (Gc.quick_stat ()).major_words in
  let m = Machine.create () in
  Gc.minor ();
  let words = (Gc.quick_stat ()).major_words -. before in
  ignore (Sys.opaque_identity m);
  Alcotest.(check bool)
    (Printf.sprintf "Machine.create: %.0f major words < 100k" words)
    true (words < 100_000.)

let test_hierarchy_costs () =
  let m = Machine.create () in
  let b =
    Machine.alloc m ~storage:Machine.Heap ~elems:16 ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  let before = (Machine.metrics m).cycles in
  ignore (Machine.load m b 0);
  let miss_cost = (Machine.metrics m).cycles -. before in
  let before = (Machine.metrics m).cycles in
  ignore (Machine.load m b 1);
  let hit_cost = (Machine.metrics m).cycles -. before in
  Alcotest.(check bool) "miss costs more than hit" true (miss_cost > hit_cost);
  Alcotest.(check int) "one l1 miss" 1 (Machine.metrics m).l1_misses;
  Alcotest.(check int) "two loads" 2 (Machine.metrics m).loads

let test_register_free () =
  let m = Machine.create () in
  let b =
    Machine.alloc m ~storage:Machine.Register ~elems:1 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  Machine.store m b 0 (Value.VInt 42);
  Alcotest.(check int) "register loads uncounted" 0 (Machine.metrics m).loads;
  Alcotest.(check (float 0.0)) "free" 0.0 (Machine.metrics m).cycles;
  Alcotest.(check int) "value" 42 (Value.as_int (Machine.load m b 0))

let test_alloc_costs () =
  let m = Machine.create () in
  let _ =
    Machine.alloc m ~storage:Machine.Heap ~elems:1024 ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  Alcotest.(check bool) "heap alloc charged" true ((Machine.metrics m).cycles > 0.0);
  Alcotest.(check int) "counted" 1 (Machine.metrics m).heap_allocs;
  let before = (Machine.metrics m).cycles in
  let _ =
    Machine.alloc m ~storage:Machine.Stack ~elems:1024 ~elem_bytes:8
      ~zero_init:(Value.VFloat 0.0)
  in
  Alcotest.(check (float 0.0)) "stack free" before (Machine.metrics m).cycles

let test_faults () =
  let m = Machine.create () in
  let b =
    Machine.alloc m ~storage:Machine.Heap ~elems:4 ~elem_bytes:8
      ~zero_init:(Value.VInt 0)
  in
  (try
     ignore (Machine.load m b 4);
     Alcotest.fail "expected out-of-bounds fault"
   with Machine.Fault _ -> ());
  (try
     ignore (Machine.load m b (-1));
     Alcotest.fail "expected negative-index fault"
   with Machine.Fault _ -> ());
  Machine.free m b;
  (try
     Machine.free m b;
     Alcotest.fail "expected double-free fault"
   with Machine.Fault _ -> ());
  (try
     ignore (Machine.load m b 0);
     Alcotest.fail "expected use-after-free fault"
   with Machine.Fault _ -> ())

let test_value_close () =
  Alcotest.(check bool) "exact int" true (Value.close (VInt 3) (VInt 3));
  Alcotest.(check bool) "different int" false (Value.close (VInt 3) (VInt 4));
  Alcotest.(check bool) "float tol" true
    (Value.close ~rtol:1e-9 (VFloat 1.0) (VFloat (1.0 +. 1e-12)));
  Alcotest.(check bool) "nan = nan" true (Value.close (VFloat nan) (VFloat nan))

let test_op_cost_table () =
  (* [Machine.create] builds its per-class cost table from [all_classes]
     at [class_index]: the indices must be exactly 0..n-1, and each charge
     must add the class's [Cost.op_cost]. *)
  let n = List.length Cost.all_classes in
  Alcotest.(check (list int)) "indices 0..n-1" (List.init n Fun.id)
    (List.sort compare (List.map Cost.class_index Cost.all_classes));
  let cfg = Cost.with_vector_math Cost.default in
  let m = Machine.create ~cfg () in
  List.iter
    (fun cls ->
      let before = (Machine.metrics m).cycles in
      Machine.charge_op m cls;
      Alcotest.(check (float 0.0))
        (Fmt.str "%a" Cost.pp_op_class cls)
        (Cost.op_cost cfg cls)
        ((Machine.metrics m).cycles -. before))
    Cost.all_classes

let test_cycle_counter () =
  (* The live counter must read as the plain sequential float sum of every
     charge — through a fork and its merge, a reset, the uncharged
     allocation and a state's allocation charge — bit for bit. *)
  let bits f = Int64.bits_of_float f in
  let check what (expect : float) (m : Machine.t) =
    Alcotest.(check int64) what (bits expect) (bits (Machine.metrics m).cycles)
  in
  let charges = [ 0.1; 0.2; 0.3; 1e-17; 7.25; 1.0 /. 3.0 ] in
  let m = Machine.create () in
  let sum = ref 0.0 in
  List.iter
    (fun c ->
      Machine.charge m c;
      sum := !sum +. c)
    charges;
  check "charges" !sum m;
  Machine.charge_op m Cost.Fp_div;
  sum := !sum +. Cost.op_cost Cost.default Cost.Fp_div;
  check "charge_op" !sum m;
  (* a fork starts at zero and merges back master first *)
  let f = Machine.fork m in
  check "fork starts at zero" 0.0 f;
  let fsum = ref 0.0 in
  List.iter
    (fun c ->
      Machine.charge f c;
      fsum := !fsum +. c)
    (List.rev charges);
  (* reading the master's counters mid-way must not disturb the merge *)
  ignore (Machine.metrics m);
  check "fork charges" !fsum f;
  Machine.merge ~into:m f;
  sum := !sum +. !fsum;
  check "merged" !sum m;
  Machine.charge m 0.7;
  sum := !sum +. 0.7;
  check "charge after merge" !sum m;
  (* the uncharged allocation takes back its cycles and its count *)
  let allocs = (Machine.metrics m).heap_allocs in
  let bytes = (Machine.metrics m).heap_bytes in
  ignore
    (Machine.alloc_uncharged m ~storage:Machine.Heap ~elems:1000 ~elem_bytes:8
       ~zero_init:(Value.VInt 0));
  check "uncharged allocation" !sum m;
  Alcotest.(check int) "not counted" allocs (Machine.metrics m).heap_allocs;
  Alcotest.(check int) "its bytes are" (bytes + 8000)
    (Machine.metrics m).heap_bytes;
  Machine.charge_state_alloc m ~bytes:8000 ~in_loop:true;
  let cfg = Cost.default in
  sum :=
    !sum +. (cfg.malloc_cost +. (cfg.malloc_per_page *. 2.0) +. cfg.free_cost);
  check "state allocation" !sum m;
  Alcotest.(check int) "state allocation counted" (allocs + 1)
    (Machine.metrics m).heap_allocs;
  Machine.reset_metrics m;
  check "reset" 0.0 m;
  Alcotest.(check bool) "every counter reset" true
    (Metrics.equal (Machine.metrics m) (Metrics.create ()));
  Machine.charge m 0.1;
  check "charge after reset" 0.1 m

let test_vector_math_cfg () =
  let scalar = Cost.op_cost Cost.default Cost.Math_call in
  let vec =
    Cost.op_cost (Cost.with_vector_math Cost.default) Cost.Math_call
  in
  Alcotest.(check bool) "vector math cheaper" true (vec < scalar);
  Alcotest.(check (float 1e-9)) "by the vector width"
    (scalar /. float_of_int Cost.default.fp_vector_width)
    vec

let prop_cache_determinism =
  QCheck2.Test.make ~count:100 ~name:"cache is deterministic"
    QCheck2.Gen.(list_size (int_range 1 200) (int_range 0 4096))
    (fun addrs ->
      let run () =
        let c = Cache.create ~name:"t" ~size_bytes:256 ~assoc:2 ~line_bytes:32 in
        List.map (Cache.access c) addrs
      in
      run () = run ())

let prop_repeated_access_hits =
  QCheck2.Test.make ~count:100 ~name:"immediate re-access always hits"
    QCheck2.Gen.(int_range 0 100000)
    (fun addr ->
      let c = Cache.create ~name:"t" ~size_bytes:1024 ~assoc:4 ~line_bytes:64 in
      ignore (Cache.access c addr);
      Cache.access c addr)

let suite =
  ( "machine",
    [
      Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru;
      Alcotest.test_case "cache counters" `Quick test_cache_counters;
      Alcotest.test_case "cache reset forgets LRU order" `Quick
        test_cache_reset_lru;
      Alcotest.test_case "cache set count is a power of two" `Quick
        test_cache_sets_power_of_two;
      Alcotest.test_case "machine creation allocates lazily" `Quick
        test_machine_create_alloc;
      Alcotest.test_case "hierarchy costs" `Quick test_hierarchy_costs;
      Alcotest.test_case "register storage is free" `Quick test_register_free;
      Alcotest.test_case "allocation costs" `Quick test_alloc_costs;
      Alcotest.test_case "memory faults" `Quick test_faults;
      Alcotest.test_case "value comparison" `Quick test_value_close;
      Alcotest.test_case "vector math knob" `Quick test_vector_math_cfg;
      Alcotest.test_case "op cost table matches Cost.op_cost" `Quick
        test_op_cost_table;
      Alcotest.test_case "cycle counter is the sequential sum" `Quick
        test_cycle_counter;
      QCheck_alcotest.to_alcotest prop_cache_determinism;
      QCheck_alcotest.to_alcotest prop_repeated_access_hits;
    ] )
