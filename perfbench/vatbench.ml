(* Host-performance benchmark of the vat simulator.

     vatbench --workload cold-suite|warm-sweep|recovery
              [--seed N] [--fault-seed F] [--seconds S] [--trace 0|1]

   With --trace 0 it sets the workload up three times, then runs timed
   passes over it for about S seconds (at least three) and reports the
   end-to-end metrics. With --trace 1 it sets up once, makes one untraced
   pass for the model counters, then the per-layer pass (Layers). Every
   simulation's output is checked; the last line of standard output is
   one JSON object: correct, attempted, failed, metrics. *)

open Work

let setup_reps = 3
let min_passes = 3

let workload = ref ""
let seed = ref 5
let fault_seed = ref 5
let seconds = ref 10.
let trace = ref 0

let usage =
  "vatbench --workload NAME [--seed N] [--fault-seed F] [--seconds S] [--trace 0|1]"

let fail msg =
  prerr_endline ("vatbench: " ^ msg);
  exit 2

let json_number = function
  | Int i -> string_of_int i
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"

let report metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-34s %s %s\n" name (json_number v) unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!failed = 0) !attempted !failed (String.concat ", " fields)

(* Timed passes until [seconds] would be overrun (and at least
   [min_passes]). Wall time is the sum over runs of each run's median
   across passes, so a noisy moment costs one sample, not a pass. *)
let end_to_end kind =
  (* Only the last set-up is kept: earlier ones are timed, then dropped. *)
  let rec setups n times =
    Gc.compact ();
    let s = setup kind in
    if n = 1 then (s, setup_seconds s :: times) else setups (n - 1) (setup_seconds s :: times)
  in
  let s, setup_times = setups setup_reps [] in
  let items = items kind s.programs ~fault_seed:!fault_seed in
  let rng = Vat_desim.Rng.create ~seed:!seed in
  let t_end = now () +. !seconds in
  let rec loop acc n =
    let t0 = now () in
    let p = run_pass rng items in
    let t1 = now () in
    Printf.eprintf "pass %d: %.3f s\n%!" (n + 1) (t1 -. t0);
    let acc = p :: acc and n = n + 1 in
    if n < min_passes || t1 +. (t1 -. t0) <= t_end then loop acc n else List.rev acc
  in
  let passes = loop [] 0 in
  let wall =
    List.fold_left ( +. ) 0.
      (List.mapi
         (fun i _ -> median (List.map (fun p -> p.outcomes.(i).seconds) passes))
         items)
  in
  let insns = (List.hd passes).guest_insns in
  List.iter
    (fun p -> operation "pass repeats" [ ("guest insns equal", p.guest_insns = insns) ])
    passes;
  [ ("wall_s", Float wall, "s");
    ("guest_insns_per_s", Float (float_of_int insns /. wall), "1/s");
    ("setup_s", Float (median setup_times), "s");
    ("minor_words_per_guest_insn",
     Float
       (median (List.map (fun p -> p.minor_words /. float_of_int p.guest_insns) passes)),
     "words");
    ("peak_rss_mb", Float (peak_rss_mb ()), "MB");
    ("slowdown_geomean",
     Float (slowdown_geomean kind s.programs items (List.hd passes).outcomes), "x") ]

let per_layer kind =
  let s = setup kind in
  let items = items kind s.programs ~fault_seed:!fault_seed in
  let reference = run_pass (Vat_desim.Rng.create ~seed:!seed) items in
  Layers.metrics ~seed:!seed ~fault_seed:!fault_seed s items reference

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME cold-suite, warm-sweep or recovery");
      ("--seed", Arg.Set_int seed, "N order of the runs in each pass (default 5)");
      ("--fault-seed", Arg.Set_int fault_seed, "F seed of the recovery fault plan (default 5)");
      ("--seconds", Arg.Set_float seconds, "S time to spend measuring (default 10)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> fail ("unexpected argument " ^ a))
    usage;
  let kind =
    match List.assoc_opt !workload kinds with
    | Some k -> k
    | None -> fail ("unknown workload " ^ !workload ^ "; " ^ usage)
  in
  let metrics =
    match !trace with
    | 0 -> end_to_end kind
    | 1 -> per_layer kind
    | _ -> fail "--trace takes 0 or 1"
  in
  report metrics
