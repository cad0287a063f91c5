(* Binary min-heap ordered by (time, seq), kept as three parallel arrays
   so that scheduling allocates nothing beyond the action closure. The
   [seq] tiebreak preserves insertion order for same-cycle events, which
   is what makes multi-actor simulations deterministic. *)
type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable actions : (unit -> unit) array;
  mutable size : int;
  mutable clock : int;
  mutable next_seq : int;
  mutable probe : (now:int -> pending:int -> unit) option;
}

let initial_capacity = 64

let create () =
  { times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    actions = Array.make initial_capacity ignore;
    size = 0;
    clock = 0;
    next_seq = 0;
    probe = None }

let set_probe t f = t.probe <- Some f
let clear_probe t = t.probe <- None

let now t = t.clock

(* Copy slot [src] into slot [dst]. Both sifts move a hole rather than
   swapping, and write the sifted event once, where it lands. *)
let move t ~src ~dst =
  t.times.(dst) <- t.times.(src);
  t.seqs.(dst) <- t.seqs.(src);
  t.actions.(dst) <- t.actions.(src)

let put t i time seq action =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.actions.(i) <- action

(* A new event carries the largest [seq] so far, so it rises past a parent
   only if its time is strictly earlier. *)
let rec sift_up t i time =
  if i = 0 then i
  else
    let parent = (i - 1) / 2 in
    if time < t.times.(parent) then begin
      move t ~src:parent ~dst:i;
      sift_up t parent time
    end
    else i

(* Where an event ([time], [seq]) lands when sunk from the hole at [i]. *)
let rec sift_down t i time seq =
  let l = (2 * i) + 1 in
  if l >= t.size then i
  else
    let r = l + 1 in
    let c =
      if r < t.size
         && (t.times.(r) < t.times.(l)
            || (t.times.(r) = t.times.(l) && t.seqs.(r) < t.seqs.(l)))
      then r
      else l
    in
    let tc = t.times.(c) in
    if tc < time || (tc = time && t.seqs.(c) < seq) then begin
      move t ~src:c ~dst:i;
      sift_down t c time seq
    end
    else i

let grow t =
  let n = Array.length t.times in
  let extend a fill =
    let bigger = Array.make (2 * n) fill in
    Array.blit a 0 bigger 0 n;
    bigger
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.actions <- extend t.actions ignore

let schedule t ~at action =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Event_queue.schedule: at=%d is before now=%d" at t.clock);
  if t.size = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.size <- t.size + 1;
  put t (sift_up t (t.size - 1) at) at seq action

let after t ~delay action = schedule t ~at:(t.clock + delay) action

let pending t = t.size
let next_seq t = t.next_seq

(* Remove the earliest event, advance the clock to it and return its
   action. The vacated slot drops its closure so the heap does not keep
   it alive. *)
let pop t =
  let action = t.actions.(0) in
  t.clock <- t.times.(0);
  let last = t.size - 1 in
  let time = t.times.(last) and seq = t.seqs.(last) in
  let last_action = t.actions.(last) in
  t.actions.(last) <- ignore;
  t.size <- last;
  if last > 0 then put t (sift_down t 0 time seq) time seq last_action;
  action

let step t =
  if t.size = 0 then false
  else begin
    let action = pop t in
    (match t.probe with
     | None -> ()
     | Some f -> f ~now:t.clock ~pending:t.size);
    action ();
    true
  end

let run_until t ~limit =
  let continue = ref true in
  while !continue do
    if t.size = 0 then begin
      if t.clock < limit then t.clock <- limit;
      continue := false
    end
    else if t.times.(0) > limit then continue := false
    else ignore (step t)
  done

let run t = while step t do () done
