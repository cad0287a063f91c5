(* Tiled-substrate tests: cache model, grid geometry, service centers. *)

open Vat_desim
open Vat_tiled

let mk_cache ?(size = 1024) ?(ways = 2) ?(line = 32) () =
  Cache.create ~name:"t" ~size_bytes:size ~ways ~line_bytes:line

let test_cache_hit_miss () =
  let c = mk_cache () in
  let r1 = Cache.access c ~addr:0x100 ~write:false in
  Alcotest.(check bool) "cold miss" false r1.hit;
  let r2 = Cache.access c ~addr:0x104 ~write:false in
  Alcotest.(check bool) "same line hits" true r2.hit;
  let r3 = Cache.access c ~addr:0x120 ~write:false in
  Alcotest.(check bool) "next line misses" false r3.hit

let test_cache_lru () =
  (* 1 KB, 2-way, 32 B lines -> 16 sets; addresses 0, 512, 1024 share set
     0. After touching 0 and 512, 1024 evicts the LRU (0). *)
  let c = mk_cache () in
  ignore (Cache.access c ~addr:0 ~write:false);
  ignore (Cache.access c ~addr:512 ~write:false);
  ignore (Cache.access c ~addr:0 ~write:false); (* refresh 0 *)
  ignore (Cache.access c ~addr:1024 ~write:false); (* evicts 512 *)
  Alcotest.(check bool) "0 survives" true (Cache.probe c ~addr:0);
  Alcotest.(check bool) "512 evicted" false (Cache.probe c ~addr:512)

let test_cache_writeback () =
  let c = mk_cache () in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:512 ~write:false);
  let r = Cache.access c ~addr:1024 ~write:false in
  (* The victim is the dirty line at 0. *)
  Alcotest.(check (option int)) "dirty victim written back" (Some 0) r.writeback

let test_cache_flush_counts_dirty () =
  let c = mk_cache () in
  ignore (Cache.access c ~addr:0 ~write:true);
  ignore (Cache.access c ~addr:64 ~write:true);
  ignore (Cache.access c ~addr:128 ~write:false);
  Alcotest.(check int) "dirty lines" 2 (Cache.dirty_lines c);
  Alcotest.(check int) "flush returns dirty count" 2 (Cache.flush c);
  Alcotest.(check bool) "empty after flush" false (Cache.probe c ~addr:0)

let prop_cache_capacity =
  QCheck.Test.make ~name:"cache: working set within capacity always hits"
    ~count:100
    QCheck.(int_range 1 32)
    (fun lines ->
      let c = mk_cache ~size:1024 ~ways:2 ~line:32 () in
      (* 1024/32 = 32 lines of capacity; touch [lines] distinct lines
         twice; sequential addresses spread over sets, so a working set
         within capacity must fully hit on the second pass. *)
      for i = 0 to lines - 1 do
        ignore (Cache.access c ~addr:(i * 32) ~write:false)
      done;
      let hits = ref 0 in
      for i = 0 to lines - 1 do
        if (Cache.access c ~addr:(i * 32) ~write:false).hit then incr hits
      done;
      !hits = lines)

let test_grid_latency () =
  let g = Grid.create () in
  let c x y : Grid.coord = { x; y } in
  Alcotest.(check int) "self" 1 (Grid.message_latency g ~src:(c 0 0) ~dst:(c 0 0));
  Alcotest.(check int) "neighbor" 4 (Grid.message_latency g ~src:(c 0 0) ~dst:(c 1 0));
  Alcotest.(check int) "corner to corner" 9
    (Grid.message_latency g ~src:(c 0 0) ~dst:(c 3 3));
  (* Symmetry. *)
  Alcotest.(check int) "symmetric"
    (Grid.message_latency g ~src:(c 2 1) ~dst:(c 0 3))
    (Grid.message_latency g ~src:(c 0 3) ~dst:(c 2 1))

let test_grid_indexing () =
  let g = Grid.create () in
  for i = 0 to Grid.tiles g - 1 do
    Alcotest.(check int) "index round trip" i
      (Grid.tile_index g (Grid.coord_of_index g i))
  done

let test_service_serializes () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc =
    Service.create q ~name:"s" ~serve:(fun () ->
        (10, fun () -> completions := Event_queue.now q :: !completions))
  in
  Service.submit svc ~delay:0 ();
  Service.submit svc ~delay:0 ();
  Service.submit svc ~delay:0 ();
  Event_queue.run q;
  Alcotest.(check (list int)) "one at a time" [ 10; 20; 30 ]
    (List.rev !completions);
  Alcotest.(check int) "busy cycles" 30 (Service.busy_cycles svc);
  Alcotest.(check int) "served" 3 (Service.served svc)

let test_service_pause_drain () =
  let q = Event_queue.create () in
  let served = ref 0 in
  let svc = Service.create q ~name:"s" ~serve:(fun () -> (5, fun () -> incr served)) in
  Service.submit svc ~delay:0 ();
  Service.submit svc ~delay:0 ();
  (* Pause after the first dispatch; drain should fire once in-service
     work completes even though the queue still holds a request. *)
  Event_queue.schedule q ~at:1 (fun () -> Service.set_paused svc true);
  let drained_at = ref (-1) in
  Event_queue.schedule q ~at:2 (fun () ->
      Service.drain_then svc (fun () -> drained_at := Event_queue.now q));
  Event_queue.run_until q ~limit:100;
  Alcotest.(check int) "only first served" 1 !served;
  Alcotest.(check int) "drained when in-flight done" 5 !drained_at;
  Service.set_paused svc false;
  Event_queue.run q;
  Alcotest.(check int) "resumed" 2 !served

(* A clean hit, and a clean miss that evicts nothing dirty (reads cycling
   over twice the cache's lines), each allocate nothing. *)
let cache_hit_allocates_nothing =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  ignore (Cache.access c ~addr:0x40 ~write:false);
  Alloc.zero_alloc "cache clean hit allocates nothing" (fun () ->
      ignore (Cache.access c ~addr:0x40 ~write:false))

let cache_miss_allocates_nothing =
  let c = Cache.create ~name:"t" ~size_bytes:1024 ~ways:2 ~line_bytes:32 in
  let line = ref 0 in
  Alloc.zero_alloc "cache clean miss allocates nothing" (fun () ->
      line := (!line + 1) land 63;
      let r = Cache.access c ~addr:(!line * 32) ~write:false in
      if r.Cache.hit || r.Cache.writeback <> None then
        Alcotest.fail "expected a clean miss")

(* Requests keep arrival order while the queue grows and wraps around its
   storage, and [fail] hands back the waiting ones in arrival order. *)
let test_service_fifo_and_orphans () =
  let q = Event_queue.create () in
  let completions = ref [] in
  let svc =
    Service.create q ~name:"s" ~serve:(fun id ->
        (10, fun () -> completions := id :: !completions))
  in
  (* 5 at cycle 0; 30 more at cycle 25, when three have left the queue
     (two served, one in service), so the ring wraps and then grows from
     a moved head; then 3 more at cycle 100. *)
  for id = 0 to 4 do Service.submit svc ~delay:0 id done;
  for id = 5 to 34 do Service.submit svc ~delay:25 id done;
  for id = 35 to 37 do Service.submit svc ~delay:100 id done;
  Event_queue.run q;
  Alcotest.(check (list int)) "FIFO" (List.init 38 Fun.id) (List.rev !completions);
  completions := [];
  for id = 0 to 19 do Service.submit svc ~delay:0 (100 + id) done;
  Event_queue.run_until q ~limit:(Event_queue.now q + 35);
  (* 100..102 done, 103 in service; the rest wait. *)
  let orphans = Service.fail svc in
  Alcotest.(check (list int)) "served before the failure" [ 100; 101; 102 ]
    (List.rev !completions);
  Alcotest.(check (list int)) "orphans in arrival order"
    (List.init 16 (fun i -> 104 + i)) orphans;
  Event_queue.run q;
  Alcotest.(check int) "in-service reply never sent" 3 (List.length !completions)

let suite =
  [ Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache LRU" `Quick test_cache_lru;
    Alcotest.test_case "cache writeback victim" `Quick test_cache_writeback;
    Alcotest.test_case "cache flush counts dirty" `Quick
      test_cache_flush_counts_dirty;
    Alcotest.test_case "grid latencies" `Quick test_grid_latency;
    Alcotest.test_case "grid indexing" `Quick test_grid_indexing;
    Alcotest.test_case "service serializes" `Quick test_service_serializes;
    Alcotest.test_case "service pause/drain" `Quick test_service_pause_drain ]
  @ [ QCheck_alcotest.to_alcotest prop_cache_capacity ]
  @ [ cache_hit_allocates_nothing; cache_miss_allocates_nothing;
      Alcotest.test_case "service FIFO across ring growth; fail orphans"
        `Quick test_service_fifo_and_orphans ]
