(* RFC 3174 over native ints masked to 32 bits (OCaml ints are 63 bits
   wide, so a 32-bit word, a sum of five of them and a left shift by up
   to 31 all fit before the mask).  Whole 64-byte blocks are compressed
   straight out of the input string; only the tail — the last partial
   block, the 0x80 marker, zeros and the 64-bit bit length, one or two
   blocks — is copied into a scratch buffer.  Each block updates the
   five-word chaining state through 80 rounds in four 20-round groups. *)

type digest = string

let mask = 0xFFFF_FFFF

let[@inline] rotl x n = ((x lsl n) lor (x lsr (32 - n))) land mask

(* The round function plus its constant, for round [t]. *)
let[@inline] fk t b c d =
  if t < 20 then ((b land c) lor (lnot b land d)) + 0x5A827999
  else if t < 40 then (b lxor c lxor d) + 0x6ED9EBA1
  else if t < 60 then ((b land c) lor (b land d) lor (c land d)) + 0x8F1BBCDC
  else (b lxor c lxor d) + 0xCA62C1D6

(* One 64-byte block of [src] at [off] into the chaining state [h],
   using [w] (80 words) as the message schedule. *)
let[@hot] compress (h : int array) (w : int array) (src : string) off =
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (String.get_int32_be src (off + (4 * t))) land mask
  done;
  for t = 16 to 79 do
    w.(t) <- rotl (w.(t - 3) lxor w.(t - 8) lxor w.(t - 14) lxor w.(t - 16)) 1
  done;
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) and e = ref h.(4) in
  (* Five rounds per iteration, so the five words trade roles by
     renaming instead of moving. *)
  for j = 0 to 15 do
    let t = 5 * j in
    e := (!e + rotl !a 5 + fk t !b !c !d + w.(t)) land mask;
    b := rotl !b 30;
    d := (!d + rotl !e 5 + fk t !a !b !c + w.(t + 1)) land mask;
    a := rotl !a 30;
    c := (!c + rotl !d 5 + fk t !e !a !b + w.(t + 2)) land mask;
    e := rotl !e 30;
    b := (!b + rotl !c 5 + fk t !d !e !a + w.(t + 3)) land mask;
    d := rotl !d 30;
    a := (!a + rotl !b 5 + fk t !c !d !e + w.(t + 4)) land mask;
    c := rotl !c 30
  done;
  h.(0) <- (h.(0) + !a) land mask;
  h.(1) <- (h.(1) + !b) land mask;
  h.(2) <- (h.(2) + !c) land mask;
  h.(3) <- (h.(3) + !d) land mask;
  h.(4) <- (h.(4) + !e) land mask

let digest_string s =
  let len = String.length s in
  let h = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |] in
  let w = Array.make 80 0 in
  let whole = len / 64 in
  for block = 0 to whole - 1 do
    compress h w s (block * 64)
  done;
  (* The tail needs room for the 0x80 marker and the 8-byte length. *)
  let rest = len - (whole * 64) in
  let tail_len = if rest < 56 then 64 else 128 in
  let tail = Bytes.make tail_len '\000' in
  Bytes.blit_string s (whole * 64) tail 0 rest;
  Bytes.unsafe_set tail rest '\x80';
  let bitlen = len * 8 in
  for i = 0 to 7 do
    Bytes.unsafe_set tail (tail_len - 8 + i)
      (Char.unsafe_chr ((bitlen lsr ((7 - i) * 8)) land 0xFF))
  done;
  let tail = Bytes.unsafe_to_string tail in
  compress h w tail 0;
  if tail_len = 128 then compress h w tail 64;
  let out = Bytes.create 20 in
  for i = 0 to 19 do
    Bytes.unsafe_set out i
      (Char.unsafe_chr ((h.(i / 4) lsr ((3 - (i land 3)) * 8)) land 0xFF))
  done;
  Bytes.unsafe_to_string out
let hex_digits = "0123456789abcdef"

let to_hex d =
  let out = Bytes.create (String.length d * 2) in
  String.iteri
    (fun i c ->
      let v = Char.code c in
      Bytes.set out (2 * i) hex_digits.[v lsr 4];
      Bytes.set out ((2 * i) + 1) hex_digits.[v land 0xF])
    d;
  Bytes.to_string out

let of_hex s =
  let len = String.length s in
  if len mod 2 <> 0 then invalid_arg "Sha1.of_hex: odd length";
  let value c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Sha1.of_hex: invalid character"
  in
  String.init (len / 2) (fun i -> Char.chr ((value s.[2 * i] lsl 4) lor value s.[(2 * i) + 1]))
