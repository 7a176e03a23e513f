type blob = { name : string; words : int array; is_transient : bool }

type t = {
  all : blob array;
  sched : int array;
  mutable pos : int;  (** index into [sched] of the next blob to load *)
}

(* ebreak padding: any runaway execution inside the swappable region traps
   back into the scheduler instead of running stale bytes. *)
let ebreak_word = Dvz_isa.Encode.encode Dvz_isa.Insn.Ebreak

let max_words = Layout.swap_size / 4

(* The whole region as ebreak words: a swap-in copies the tail past the
   blob in one blit instead of up to [max_words] word writes. *)
let ebreak_image =
  let b = Bytes.create (4 * max_words) in
  for i = 0 to max_words - 1 do
    Bytes.set_int32_le b (4 * i) (Int32.of_int ebreak_word)
  done;
  b

let create ~blobs ~schedule =
  let all = Array.of_list blobs in
  List.iter
    (fun i ->
      if i < 0 || i >= Array.length all then
        invalid_arg "Swapmem.create: schedule index out of range")
    schedule;
  Array.iter
    (fun b ->
      if Array.length b.words > max_words then
        invalid_arg ("Swapmem.create: blob too large: " ^ b.name))
    all;
  { all; sched = Array.of_list schedule; pos = 0 }

let blobs t = Array.to_list t.all
let schedule t = Array.to_list t.sched

let reset t = t.pos <- 0

let current t =
  if t.pos = 0 then None else Some t.all.(t.sched.(t.pos - 1))

let load_next t mem =
  if t.pos >= Array.length t.sched then None
  else begin
    let b = t.all.(t.sched.(t.pos)) in
    t.pos <- t.pos + 1;
    Phys_mem.write_words mem Layout.swap_base b.words;
    let used = 4 * Array.length b.words in
    Phys_mem.blit mem ~addr:(Layout.swap_base + used) ebreak_image ~off:used
      ~len:(Bytes.length ebreak_image - used);
    Some b
  end

let remaining t = Array.length t.sched - t.pos

let with_schedule t schedule =
  create ~blobs:(Array.to_list t.all) ~schedule
