(* Fault injection and recovery: deterministic fault plans, service-level
   failure semantics, retry/backoff bookkeeping, watchdog stall detection,
   and the central robustness property — recoverable faults change timing,
   never guest-visible semantics. *)

open Vat_desim
open Vat_guest
open Vat_tiled
open Vat_core
open Vat_workloads

let fuel = 2_000_000

(* ------------------------------------------------------------------ *)
(* Fault plans                                                         *)
(* ------------------------------------------------------------------ *)

let test_plan_deterministic () =
  let menu = Vm.fault_menu Config.default in
  let p1 = Fault.random ~seed:42 ~horizon:100_000 ~menu ~count:6 in
  let p2 = Fault.random ~seed:42 ~horizon:100_000 ~menu ~count:6 in
  Alcotest.(check (list string))
    "same seed, same plan"
    (List.map Fault.event_to_string (Fault.events p1))
    (List.map Fault.event_to_string (Fault.events p2));
  let p3 = Fault.random ~seed:43 ~horizon:100_000 ~menu ~count:6 in
  Alcotest.(check bool) "different seed, different plan" false
    (List.map Fault.event_to_string (Fault.events p1)
    = List.map Fault.event_to_string (Fault.events p3))

let test_plan_prefix () =
  (* Growing the count extends the schedule without disturbing the
     existing events — what makes cumulative degradation curves fair. *)
  let menu = Vm.fault_menu Config.default in
  let p4 = Fault.random ~seed:7 ~horizon:50_000 ~menu ~count:4 in
  let p8 = Fault.random ~seed:7 ~horizon:50_000 ~menu ~count:8 in
  let strs p = List.map Fault.event_to_string (Fault.events p) in
  let sorted l = List.sort compare l in
  List.iter
    (fun e ->
      Alcotest.(check bool) ("prefix event survives: " ^ e) true
        (List.mem e (strs p8)))
    (strs p4);
  Alcotest.(check int) "counts" 8 (List.length (sorted (strs p8)))

let test_plan_ordering () =
  let events =
    [ { Fault.at = 500; site = Fault.site Fault.Manager; kind = Fault.Fail_stop };
      { Fault.at = 100; site = Fault.site ~index:1 Fault.L2d; kind = Fault.Fail_stop } ]
  in
  match Fault.events (Fault.make ~seed:0 events) with
  | [ a; b ] ->
    Alcotest.(check int) "sorted by cycle" 100 a.Fault.at;
    Alcotest.(check int) "second" 500 b.Fault.at
  | _ -> Alcotest.fail "expected two events"

(* Every role and a spread of indices fire at one cycle, listed in a
   scrambled order. [Fault.make] orders same-cycle events by site (role
   first, then index); the expected order is pinned so a change in how
   roles are represented cannot reorder a plan. *)
let test_plan_same_cycle_role_order () =
  let ev ?index role kind =
    { Fault.at = 7_000; site = Fault.site ?index role; kind }
  in
  let plan =
    Fault.make ~seed:0
      [ ev Fault.Translator ~index:2 Fault.Fail_stop;
        ev Fault.Syscall (Fault.Slow { factor = 4; cycles = 20_000 });
        ev Fault.L2d ~index:3 (Fault.Drop_requests 4);
        ev Fault.Mmu Fault.Fail_stop;
        ev Fault.Exec Fault.Corrupt_storage;
        ev Fault.L15 ~index:1 (Fault.Corrupt_payload 3);
        ev Fault.Manager (Fault.Duplicate_delivery 2);
        ev Fault.Translator Fault.Fail_stop;
        ev Fault.L2d Fault.Corrupt_storage;
        ev Fault.L15 (Fault.Drop_requests 4);
        { Fault.at = 6_999; site = Fault.site Fault.Translator;
          kind = Fault.Fail_stop } ]
  in
  Alcotest.(check (list string)) "same-cycle events ordered by role, index"
    [ "@6999 translator fail-stop";
      "@7000 exec corrupt-storage";
      "@7000 l15 drop-4";
      "@7000 l15:1 corrupt-payload-3";
      "@7000 l2d corrupt-storage";
      "@7000 l2d:3 drop-4";
      "@7000 manager duplicate-2";
      "@7000 mmu fail-stop";
      "@7000 syscall slow-x4-for-20000";
      "@7000 translator fail-stop";
      "@7000 translator:2 fail-stop" ]
    (List.map Fault.event_to_string (Fault.events plan))

(* The printed form of a mixed plan is part of the snapshot fingerprint
   and of every figure that lists a plan: pin it verbatim. *)
let test_plan_strings () =
  let plan =
    Fault.make ~seed:2026
      [ { Fault.at = 40_000; site = Fault.site ~index:0 Fault.Translator;
          kind = Fault.Fail_stop };
        { Fault.at = 60_000; site = Fault.site ~index:1 Fault.L2d;
          kind = Fault.Corrupt_storage };
        { Fault.at = 120_000; site = Fault.site Fault.Manager;
          kind = Fault.Drop_requests 4 };
        { Fault.at = 9_000; site = Fault.site ~index:5 Fault.L15;
          kind = Fault.Duplicate_delivery 2 };
        { Fault.at = 75_000; site = Fault.site Fault.Mmu;
          kind = Fault.Corrupt_payload 3 };
        { Fault.at = 80_000; site = Fault.site Fault.Syscall;
          kind = Fault.Slow { factor = 2; cycles = 500 } };
        { Fault.at = 99_000; site = Fault.site Fault.Exec; kind = Fault.Fail_stop } ]
  in
  Alcotest.(check (list string)) "site_to_string"
    [ "l15:5"; "translator"; "l2d:1"; "mmu"; "syscall"; "exec"; "manager" ]
    (List.map (fun e -> Fault.site_to_string e.Fault.site) (Fault.events plan));
  Alcotest.(check string) "Fault.pp"
    "plan(seed=2026) [@9000 l15:5 duplicate-2] [@40000 translator fail-stop] \
     [@60000 l2d:1 corrupt-storage] [@75000 mmu corrupt-payload-3] \
     [@80000 syscall slow-x2-for-500] [@99000 exec fail-stop] \
     [@120000 manager drop-4]"
    (Format.asprintf "%a" Fault.pp plan)

(* ------------------------------------------------------------------ *)
(* Service-level fault semantics                                       *)
(* ------------------------------------------------------------------ *)

let mk_service q completions =
  Service.create q ~name:"s" ~serve:(fun id ->
      (10, fun () -> completions := id :: !completions))

let test_service_fail_stop () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:0 2;
  Service.submit svc ~delay:0 3;
  (* Kill the tile while request 1 is in service: 1 is abandoned, 2 and 3
     are dropped from the queue, and a later arrival is rejected. *)
  Event_queue.after q ~delay:5 (fun () ->
      let orphans = Service.fail svc in
      Alcotest.(check (list int)) "queued requests returned" [ 2; 3 ] orphans);
  Service.submit svc ~delay:20 4;
  Event_queue.run q;
  Alcotest.(check (list int)) "no request ever completed" [] !completions;
  Alcotest.(check bool) "failed" true (Service.failed svc);
  (* 1 abandoned mid-service + 2 queued + 1 rejected late arrival. *)
  Alcotest.(check int) "dropped" 4 (Service.dropped svc);
  Alcotest.(check int) "served" 0 (Service.served svc)

let test_service_reject_handler () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  let rerouted = ref [] in
  Service.set_reject_handler svc (fun id -> rerouted := id :: !rerouted);
  ignore (Service.fail svc);
  Service.submit svc ~delay:0 7;
  Service.submit svc ~delay:1 8;
  Event_queue.run q;
  Alcotest.(check (list int)) "rerouted in arrival order" [ 7; 8 ]
    (List.rev !rerouted)

let test_service_drop_next () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc = mk_service q completions in
  Service.inject svc (Fault.Drop_requests 2);
  Service.submit svc ~delay:0 1;
  Service.submit svc ~delay:0 2;
  Service.submit svc ~delay:0 3;
  Event_queue.run q;
  Alcotest.(check (list int)) "only the third survives" [ 3 ] !completions;
  Alcotest.(check int) "two transient drops" 2 (Service.dropped svc);
  Alcotest.(check bool) "not failed" false (Service.failed svc)

let test_service_slow () =
  let q = Event_queue.create () in
  let done_at = ref [] in
  let svc =
    Service.create q ~name:"s" ~serve:(fun () ->
        (10, fun () -> done_at := Event_queue.now q :: !done_at))
  in
  Service.inject svc (Fault.Slow { factor = 4; cycles = 15 });
  Service.submit svc ~delay:0 ();  (* starts at 0, occupancy 40 *)
  Service.submit svc ~delay:100 (); (* window expired: occupancy 10 *)
  Event_queue.run q;
  Alcotest.(check (list int)) "slow then nominal" [ 40; 110 ]
    (List.rev !done_at)

(* ------------------------------------------------------------------ *)
(* Grid degradation                                                    *)
(* ------------------------------------------------------------------ *)

let test_grid_detour () =
  let g = Grid.create () in
  let c x y : Grid.coord = { x; y } in
  let base = Grid.message_latency g ~src:(c 0 0) ~dst:(c 3 0) in
  Grid.fail_tile g (c 2 0);
  Alcotest.(check int) "detour costs two hops" (base + 2)
    (Grid.message_latency g ~src:(c 0 0) ~dst:(c 3 0));
  (* A route that does not cross the failed tile is unaffected. *)
  Alcotest.(check int) "off-route unaffected"
    (Grid.message_latency g ~src:(c 0 1) ~dst:(c 3 1))
    (4 + Grid.hops (c 0 1) (c 3 1) - 1);
  (* The corner tile of an XY route counts. *)
  let base_corner = 3 + Grid.hops (c 0 1) (c 2 0) in
  Grid.fail_tile g (c 2 1);
  Alcotest.(check int) "corner tile detours" (base_corner + 2)
    (Grid.message_latency g ~src:(c 0 1) ~dst:(c 2 0));
  Alcotest.(check int) "failed tiles" 2 (Grid.failed_tiles g)

(* ------------------------------------------------------------------ *)
(* VM-level recovery                                                   *)
(* ------------------------------------------------------------------ *)

open Asm.Dsl

(* A program with enough blocks and data traffic to exercise fills,
   translations, and the data-memory pipeline. *)
let workload_program =
  [ label "start";
    mov (r esi) (isym "data");
    mov (r eax) (i 0);
    mov (r ecx) (i 3000);
    label "loop";
    add (r eax) (r ecx);
    mov (m ~base:esi ~disp:0 ()) (r eax);
    add (r eax) (m ~base:esi ~disp:0 ());
    mov (r edx) (r ecx);
    and_ (r edx) (i 0xFF);
    mov (m ~base:esi ~disp:4 ()) (r edx);
    dec (r ecx);
    jne "loop";
    mov (r ebx) (r eax);
    and_ (r ebx) (i 0x7F);
    mov (r eax) (i Syscall.sys_exit);
    int_ Syscall.vector;
    (* Keep data off the code pages so stores don't look self-modifying. *)
    Asm.Align 4096;
    label "data";
    Asm.Space 64 ]

let interp_digest items =
  let interp = Interp.create (Program.of_asm items) in
  match Interp.run ~fuel interp with
  | Interp.Exited n -> (n, Interp.digest interp)
  | Interp.Fault m -> Alcotest.failf "interpreter faulted: %s" m
  | Interp.Out_of_fuel -> Alcotest.fail "interpreter out of fuel"

let check_faulty_run ?(cfg = Config.default) items plan =
  let code, digest = interp_digest items in
  let rv = Vm.run ~fuel ~faults:plan cfg (Program.of_asm items) in
  (match rv.outcome with
   | Exec.Exited n when n = code -> ()
   | Exec.Exited n -> Alcotest.failf "wrong exit: %d, want %d" n code
   | Exec.Fault m -> Alcotest.failf "faulted: %s" m
   | Exec.Out_of_fuel -> Alcotest.fail "out of fuel");
  Alcotest.(check bool) "guest state uncorrupted" true (digest = rv.digest);
  rv

(* Tight deadlines so retries happen inside a small test run. *)
let ft_cfg =
  { Config.default with
    fault_tolerance = true;
    fill_deadline_cycles = 800;
    mem_deadline_cycles = 600;
    watchdog_stall_cycles = 200_000 }

let test_retry_backoff () =
  (* Drop a burst of manager requests: fills must time out, retry, and the
     run must still finish with correct state. *)
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 10; site = Fault.site Fault.Manager;
          kind = Fault.Drop_requests 3 } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  let get = Metrics.get rv in
  Alcotest.(check bool) "requests were dropped" true
    (get "fault.dropped_requests" >= 1);
  Alcotest.(check bool) "deadlines expired" true (get "fault.fill_timeouts" >= 1);
  Alcotest.(check bool) "fills were retried" true (get "fault.fill_retries" >= 1);
  Alcotest.(check bool) "retries bounded by timeouts" true
    (get "fault.fill_retries" <= get "fault.fill_timeouts")

let test_degraded_demand_translate () =
  (* Zero retries: the first expired deadline goes straight to the
     manager's own demand translation. *)
  let cfg = { ft_cfg with Config.fill_max_retries = 0 } in
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 10; site = Fault.site Fault.Manager;
          kind = Fault.Drop_requests 2 } ]
  in
  let rv = check_faulty_run ~cfg workload_program plan in
  Alcotest.(check bool) "demand translations" true
    (Metrics.get rv "fault.demand_translates" >= 1)

let test_translator_eviction () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 100; site = Fault.site ~index:0 Fault.Translator;
          kind = Fault.Fail_stop };
        { Fault.at = 200; site = Fault.site ~index:1 Fault.Translator;
          kind = Fault.Fail_stop } ]
  in
  let rv = check_faulty_run workload_program plan in
  Alcotest.(check int) "both evicted" 2
    (Metrics.get rv "fault.translator_evictions");
  Alcotest.(check int) "both tiles marked failed" 2 (Metrics.failed_tiles rv)

let test_l2d_bank_failure_rebanks () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 1_000; site = Fault.site ~index:1 Fault.L2d;
          kind = Fault.Fail_stop } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "re-banked" true (Metrics.get rv "fault.rebanks" >= 1)

let test_all_banks_dead_direct_dram () =
  let plan =
    Fault.make ~seed:1
      (List.init 4 (fun i ->
           { Fault.at = 1_000 + (i * 100); site = Fault.site ~index:i Fault.L2d;
             kind = Fault.Fail_stop }))
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "MMU fell back to uncached DRAM" true
    (Metrics.get rv "fault.uncached_dram_accesses" >= 1)

let test_l15_bank_failure () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 50; site = Fault.site ~index:0 Fault.L15;
          kind = Fault.Fail_stop };
        { Fault.at = 60; site = Fault.site ~index:1 Fault.L15;
          kind = Fault.Fail_stop } ]
  in
  let rv = check_faulty_run ~cfg:ft_cfg workload_program plan in
  Alcotest.(check bool) "degraded events recorded" true
    (Metrics.degraded_events rv >= 0);
  Alcotest.(check int) "both L1.5 tiles failed" 2 (Metrics.failed_tiles rv)

let test_unrecoverable_manager () =
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 5_000; site = Fault.site Fault.Manager;
          kind = Fault.Fail_stop } ]
  in
  let rv = Vm.run ~fuel ~faults:plan Config.default (Program.of_asm workload_program) in
  (match rv.outcome with
   | Exec.Fault m ->
     Alcotest.(check bool) ("diagnostic names the manager: " ^ m) true
       (String.length m >= 19 && String.sub m 0 19 = "unrecoverable fault")
   | Exec.Exited _ | Exec.Out_of_fuel ->
     Alcotest.fail "expected a clean unrecoverable-fault outcome");
  Alcotest.(check int) "counted" 1 (Metrics.get rv "fault.unrecoverable")

(* Every role x kind pair as a one-event plan. [Vm.fault_menu] offers
   only some pairs (no translator drop, syscall fail-stop or exec slow,
   for example), so this is the only place the others run.
   The pairs that hit no store or message stream count one absorbed
   corruption; the terminal ones end the run cleanly; everything else is
   invisible to the guest. *)
let test_role_kind_matrix () =
  let code, digest = interp_digest workload_program in
  let kinds =
    Fault.
      [ Fail_stop; Drop_requests 4; Slow { factor = 4; cycles = 20_000 };
        Corrupt_payload 3; Corrupt_storage; Duplicate_delivery 2 ]
  in
  let terminal =
    Fault.
      [ (Exec, C_fail_stop); (Exec, C_drop); (Exec, C_slow);
        (Manager, C_fail_stop); (Mmu, C_fail_stop);
        (Syscall, C_fail_stop); (Syscall, C_drop) ]
  in
  let absorbed =
    Fault.
      [ (Translator, C_corrupt_payload); (Translator, C_corrupt_storage);
        (Translator, C_duplicate); (Mmu, C_corrupt_storage);
        (Syscall, C_corrupt_payload); (Syscall, C_corrupt_storage);
        (Syscall, C_duplicate); (Exec, C_corrupt_payload); (Exec, C_duplicate) ]
  in
  let n_terminal = ref 0 in
  List.iter
    (fun role ->
      List.iter
        (fun kind ->
          let pair = (role, Fault.class_of_kind kind) in
          let event = { Fault.at = 5_000; site = Fault.site role; kind } in
          let name = Fault.event_to_string event in
          let plan = Fault.make ~seed:1 [ event ] in
          let rv =
            Vm.run ~fuel ~faults:plan Config.default (Program.of_asm workload_program)
          in
          (match rv.outcome with
           | Exec.Fault m when String.starts_with ~prefix:"unrecoverable fault" m ->
             incr n_terminal;
             Alcotest.(check bool) (name ^ " is terminal") true (List.mem pair terminal)
           | Exec.Exited n ->
             Alcotest.(check bool) (name ^ " is survivable") false (List.mem pair terminal);
             Alcotest.(check int) (name ^ ": exit code") code n;
             Alcotest.(check bool) (name ^ ": guest state") true (digest = rv.digest)
           | Exec.Fault m -> Alcotest.failf "%s: faulted: %s" name m
           | Exec.Out_of_fuel -> Alcotest.failf "%s: out of fuel" name);
          if List.mem pair absorbed then
            Alcotest.(check int) (name ^ ": absorbed") 1
              (Metrics.get rv "corrupt.absorbed"))
        kinds)
    Fault.[ Exec; L15; L2d; Manager; Mmu; Syscall; Translator ];
  Alcotest.(check int) "terminal pairs" 7 !n_terminal

let test_watchdog_stall () =
  (* Deadline far beyond the watchdog: a lost fill hangs the engine and
     the watchdog must abort with diagnostics rather than spin forever. *)
  let cfg =
    { Config.default with
      fault_tolerance = true;
      fill_deadline_cycles = 50_000_000;
      mem_deadline_cycles = 50_000_000;
      watchdog_stall_cycles = 30_000 }
  in
  let plan =
    Fault.make ~seed:1
      [ { Fault.at = 10; site = Fault.site Fault.Manager;
          kind = Fault.Drop_requests 50 } ]
  in
  let rv = Vm.run ~fuel ~faults:plan cfg (Program.of_asm workload_program) in
  (match rv.outcome with
   | Exec.Fault m ->
     Alcotest.(check bool) ("watchdog diagnostic: " ^ m) true
       (String.length m >= 8 && String.sub m 0 8 = "watchdog")
   | Exec.Exited _ | Exec.Out_of_fuel ->
     Alcotest.fail "expected a watchdog abort");
  Alcotest.(check int) "watchdog abort counted" 1 (Metrics.watchdog_aborts rv)

(* ------------------------------------------------------------------ *)
(* Acceptance: gzip survives 2 translator deaths + 1 L2D bank death     *)
(* ------------------------------------------------------------------ *)

let gzip_plan =
  Fault.make ~seed:2026
    [ { Fault.at = 40_000; site = Fault.site ~index:0 Fault.Translator;
        kind = Fault.Fail_stop };
      { Fault.at = 60_000; site = Fault.site ~index:1 Fault.L2d;
        kind = Fault.Fail_stop };
      { Fault.at = 90_000; site = Fault.site ~index:2 Fault.Translator;
        kind = Fault.Fail_stop } ]

let stats_fingerprint (r : Vm.result) =
  String.concat ";"
    (List.map
       (fun name -> Printf.sprintf "%s=%d" name (Stats.get r.stats name))
       (Stats.names r.stats))

let test_gzip_survives_faults () =
  let b = Suite.find "gzip" in
  let interp = Interp.create (Suite.load b) in
  let oi = Interp.run ~fuel:5_000_000 interp in
  (match oi with
   | Interp.Exited _ -> ()
   | _ -> Alcotest.fail "gzip reference run did not exit");
  let run () = Vm.run ~fuel:5_000_000 ~faults:gzip_plan Config.default (Suite.load b) in
  let rv = run () in
  (match (oi, rv.outcome) with
   | Interp.Exited a, Exec.Exited b when a = b -> ()
   | _ -> Alcotest.fail "gzip outcome differs under faults");
  Alcotest.(check bool) "guest-visible state identical to fault-free run"
    true
    (Interp.digest interp = rv.digest);
  Alcotest.(check string) "output identical" (Interp.output interp) rv.output;
  (* The faults are visible in the summary... *)
  Alcotest.(check int) "faults injected" 3 (Metrics.faults_injected rv);
  Alcotest.(check bool) "summary reports faults" true
    (List.mem_assoc "faults_injected" (Metrics.summary rv));
  Alcotest.(check int) "tiles lost" 3 (Metrics.failed_tiles rv);
  (* ...and the same plan reproduces byte-identical metrics. *)
  let rv2 = run () in
  Alcotest.(check string) "deterministic replay"
    (stats_fingerprint rv) (stats_fingerprint rv2);
  Alcotest.(check int) "same cycle count" rv.cycles rv2.cycles

(* ------------------------------------------------------------------ *)
(* Differential property: recoverable faults never change semantics     *)
(* ------------------------------------------------------------------ *)

let prop_fault_semantic_transparency =
  QCheck.Test.make
    ~name:
      "random program + random recoverable fault schedule = fault-free \
       interpreter state"
    ~count:15
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 6))
    (fun (seed, n_faults) ->
      let rng = Rng.create ~seed in
      let items = Randprog.generate rng Randprog.default_params in
      let prog_i = Program.of_asm items in
      let interp = Interp.create prog_i in
      let oi = Interp.run ~fuel interp in
      let menu = Vm.fault_menu ~recoverable_only:true ft_cfg in
      let plan =
        Fault.random ~seed:(seed + 1) ~horizon:150_000 ~menu ~count:n_faults
      in
      let rv =
        Vm.run ~fuel:(fuel * 2) ~faults:plan ft_cfg (Program.of_asm items)
      in
      match (oi, rv.outcome) with
      | Interp.Exited a, Exec.Exited b when a = b ->
        Interp.digest interp = rv.digest
        && Interp.output interp = rv.output
      | Interp.Fault _, Exec.Fault _ -> true
      | Interp.Out_of_fuel, _ | _, Exec.Out_of_fuel -> true
      | _ ->
        QCheck.Test.fail_reportf "outcomes diverged under plan %s"
          (Format.asprintf "%a" Fault.pp plan))

let suite =
  [ Alcotest.test_case "plan: deterministic from seed" `Quick
      test_plan_deterministic;
    Alcotest.test_case "plan: count extension is a superset" `Quick
      test_plan_prefix;
    Alcotest.test_case "plan: events sorted by cycle" `Quick test_plan_ordering;
    Alcotest.test_case "plan: same-cycle order across roles" `Quick
      test_plan_same_cycle_role_order;
    Alcotest.test_case "plan: printed form of a mixed plan" `Quick
      test_plan_strings;
    Alcotest.test_case "service: fail-stop drops and rejects" `Quick
      test_service_fail_stop;
    Alcotest.test_case "service: reject handler reroutes" `Quick
      test_service_reject_handler;
    Alcotest.test_case "service: transient drop" `Quick test_service_drop_next;
    Alcotest.test_case "service: slow-tile factor" `Quick test_service_slow;
    Alcotest.test_case "grid: failed tiles cost detours" `Quick
      test_grid_detour;
    Alcotest.test_case "vm: retry/backoff bookkeeping" `Quick
      test_retry_backoff;
    Alcotest.test_case "vm: degraded demand-translate path" `Quick
      test_degraded_demand_translate;
    Alcotest.test_case "vm: translator fail-stop evicts" `Quick
      test_translator_eviction;
    Alcotest.test_case "vm: L2D bank failure re-banks" `Quick
      test_l2d_bank_failure_rebanks;
    Alcotest.test_case "vm: all banks dead -> uncached DRAM" `Quick
      test_all_banks_dead_direct_dram;
    Alcotest.test_case "vm: L1.5 bank failure reroutes" `Quick
      test_l15_bank_failure;
    Alcotest.test_case "vm: manager fail-stop is clean+unrecoverable" `Quick
      test_unrecoverable_manager;
    Alcotest.test_case "vm: watchdog detects stalls" `Quick test_watchdog_stall;
    Alcotest.test_case "gzip survives 2 translators + 1 bank dying" `Slow
      test_gzip_survives_faults;
    QCheck_alcotest.to_alcotest prop_fault_semantic_transparency;
    Alcotest.test_case "vm: one fault per role x kind pair" `Quick
      test_role_kind_matrix ]
