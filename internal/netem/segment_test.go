package netem

import (
	"testing"
	"time"

	"multinet/internal/simnet"
)

func TestWireSize(t *testing.T) {
	opt := &struct{ id string }{"mp-capable"}
	for _, tc := range []struct {
		name string
		seg  Segment
		want int
	}{
		{"bare header", Segment{Flags: FlagACK}, HeaderSize},
		{"full payload", Segment{Flags: FlagACK, PayloadLen: 1460}, MTU},
		{"DSS", Segment{Flags: FlagACK | FlagDSS, PayloadLen: 1460}, MTU + OptionSize},
		{"SYN option", Segment{Flags: FlagSYN, Opt: opt}, HeaderSize + OptionSize},
		{"1 SACK block", Segment{Flags: FlagACK, NSack: 1}, HeaderSize + 10},
		{"2 SACK blocks", Segment{Flags: FlagACK, NSack: 2}, HeaderSize + 18},
		{"3 SACK blocks", Segment{Flags: FlagACK, NSack: 3}, HeaderSize + 26},
		{"4 SACK blocks", Segment{Flags: FlagACK, NSack: MaxSackBlocks}, HeaderSize + 34},
		{"DSS and 4 SACK blocks", Segment{Flags: FlagACK | FlagDSS, NSack: MaxSackBlocks}, HeaderSize + OptionSize + 34},
	} {
		if got := tc.seg.WireSize(); got != tc.want {
			t.Errorf("%s: WireSize = %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestSendCopiesHeader: a packet carries a copy of the header taken when
// it is sent, so the receiver reads the header as it was sent even
// though the sender reuses its segment as soon as SendUp returns — here
// while the first packet still waits out a radio promotion.
func TestSendCopiesHeader(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "lte", 10, time.Millisecond)
	i.SetPromotion(50*time.Millisecond, time.Second)
	var got []Segment
	i.OnServerRecv(func(p *Packet) {
		got = append(got, p.Seg)
		ReleasePacket(p)
	})
	opt := &struct{ id string }{"mp-join"}
	seg := Segment{Flow: "f", Flags: FlagSYN | FlagDSS, Seq: 7, Ack: 3, PayloadLen: 100, Wnd: 1 << 20,
		SrcPort: 1, DstPort: 2, DSS: DSS{DataSeq: 11, DataAck: 13}, Opt: opt,
		Sack: [MaxSackBlocks]SackBlock{{20, 30}, {40, 50}}, NSack: 2}
	first := seg
	i.SendUp(seg.WireSize(), &seg)
	seg = Segment{Flow: "g", Flags: FlagACK, Seq: 99}
	second := seg
	i.SendUp(seg.WireSize(), &seg)
	seg.Flow, seg.Seq, seg.Sack[0] = "h", 1, SackBlock{1, 2}
	s.Run()
	if len(got) != 2 || got[0] != first || got[1] != second {
		t.Fatalf("received %+v, want %+v then %+v", got, first, second)
	}
}

// TestSendRawPacket: a nil segment sends a raw packet of the given size
// with a zero header, as the benchmark ladder's netem rung does.
func TestSendRawPacket(t *testing.T) {
	s := simnet.New(1)
	i := testIface(s, "wifi", 10, time.Millisecond)
	var got []Packet
	i.OnClientRecv(func(p *Packet) {
		got = append(got, *p)
		ReleasePacket(p)
	})
	i.SendDown(MTU, nil)
	s.Run()
	if len(got) != 1 || got[0].Size != 1500 || got[0].Dir != Down || got[0].Seg != (Segment{}) {
		t.Fatalf("received %+v, want one 1500-byte downlink packet with a zero header", got)
	}
}
