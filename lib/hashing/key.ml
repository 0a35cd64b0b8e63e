(* A key is a 20-byte big-endian string; byte-wise [String.compare] is then
   exactly numeric comparison, and modular arithmetic works byte by byte with
   carries. *)

type t = string

let bits = 160
let byte_count = bits / 8

let zero = String.make byte_count '\000'

let compare = String.compare
let equal = String.equal
let hash = Hashtbl.hash

let of_string s = Sha1.digest_string s

let of_int n =
  if n < 0 then invalid_arg "Key.of_int: negative value";
  let b = Bytes.make byte_count '\000' in
  let rec fill pos n =
    if n > 0 && pos >= 0 then begin
      Bytes.set b pos (Char.chr (n land 0xFF));
      fill (pos - 1) (n lsr 8)
    end
  in
  fill (byte_count - 1) n;
  Bytes.to_string b

let of_hex s =
  let d = Sha1.of_hex s in
  if String.length d <> byte_count then invalid_arg "Key.of_hex: wrong length";
  d

let to_hex = Sha1.to_hex

let short_hex k = String.sub (to_hex k) 0 8

let pp ppf k = Format.pp_print_string ppf (short_hex k)

let nibble t i =
  if i < 0 || i >= 2 * byte_count then invalid_arg "Key.nibble: index out of range";
  let byte = Char.code t.[i / 2] in
  if i mod 2 = 0 then byte lsr 4 else byte land 0xF

(* XOR-metric primitives (Kademlia).  All walk the two big-endian byte
   strings in step from the most significant byte and stop at the first
   difference; none of them builds an intermediate key. *)

let[@inline] byte s i = Char.code (String.unsafe_get s i)

let logxor a b =
  let out = Bytes.create byte_count in
  for i = 0 to byte_count - 1 do
    Bytes.unsafe_set out i (Char.unsafe_chr (byte a i lxor byte b i))
  done;
  Bytes.unsafe_to_string out

let[@hot] rec compare_xor_from target a b i =
  if i = byte_count then 0
  else
    let t = byte target i in
    let c = Int.compare (byte a i lxor t) (byte b i lxor t) in
    if c <> 0 then c else compare_xor_from target a b (i + 1)

let compare_xor ~target a b = compare_xor_from target a b 0

(* Leading zero bits of a non-zero byte. *)
let leading_zeros8 x =
  if x >= 0x80 then 0
  else if x >= 0x40 then 1
  else if x >= 0x20 then 2
  else if x >= 0x10 then 3
  else if x >= 0x08 then 4
  else if x >= 0x04 then 5
  else if x >= 0x02 then 6
  else 7

let[@hot] rec common_prefix_from a b i =
  if i = byte_count then bits
  else
    let x = byte a i lxor byte b i in
    if x = 0 then common_prefix_from a b (i + 1) else (8 * i) + leading_zeros8 x

let common_prefix_bits a b = common_prefix_from a b 0

let bit t i =
  if i < 0 || i >= bits then invalid_arg "Key.bit: index out of range";
  (byte t (i lsr 3) lsr (7 - (i land 7))) land 1

let add t u =
  (* Byte-wise addition modulo 2^160 (the final carry is discarded). *)
  let out = Bytes.create byte_count in
  let carry = ref 0 in
  for i = byte_count - 1 downto 0 do
    let sum = Char.code t.[i] + Char.code u.[i] + !carry in
    Bytes.set out i (Char.chr (sum land 0xFF));
    carry := sum lsr 8
  done;
  Bytes.to_string out

let sub t u =
  (* Byte-wise subtraction modulo 2^160. *)
  let out = Bytes.create byte_count in
  let borrow = ref 0 in
  for i = byte_count - 1 downto 0 do
    let diff = Char.code t.[i] - Char.code u.[i] - !borrow in
    if diff < 0 then begin
      Bytes.set out i (Char.chr (diff + 256));
      borrow := 1
    end
    else begin
      Bytes.set out i (Char.chr diff);
      borrow := 0
    end
  done;
  Bytes.to_string out

let one = of_int 1

let succ t = add t one

let pow2 i =
  if i < 0 || i >= bits then invalid_arg "Key.add_pow2: exponent out of range";
  let b = Bytes.make byte_count '\000' in
  let byte = byte_count - 1 - (i / 8) in
  Bytes.set b byte (Char.chr (1 lsl (i mod 8)));
  Bytes.to_string b

let add_pow2 t i = add t (pow2 i)

let in_interval_oo k ~lo ~hi =
  if equal lo hi then not (equal k lo)
  else if compare lo hi < 0 then compare lo k < 0 && compare k hi < 0
  else compare lo k < 0 || compare k hi < 0

let in_interval_oc k ~lo ~hi =
  if equal lo hi then true
  else if compare lo hi < 0 then compare lo k < 0 && compare k hi <= 0
  else compare lo k < 0 || compare k hi <= 0

let distance_cw a b = sub b a

let to_float t =
  let acc = ref 0.0 in
  String.iter (fun c -> acc := (!acc *. 256.0) +. float_of_int (Char.code c)) t;
  !acc

let random g =
  String.init byte_count (fun _ -> Char.chr (Stdx.Prng.int g 256))
